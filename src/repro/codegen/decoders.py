"""Per-schema compiled bulk row decoders.

:meth:`~repro.core.rowcodec.RowCodec.decode` walks the schema's field
list per row — a Python loop with a bitmap test, a slot lookup, and a
dispatch on fixed vs. variable width for every field of every row. For
an indexed scan that decodes hundreds of thousands of rows per query,
that interpretation dominates the latency.

Two specializations take it away, both generating straight-line source
with the field offsets, struct unpackers, and string/binary dispatch
baked in for one concrete schema (and optionally a column subset):

* :func:`build_batch_decoder` — ``decoder(payloads) -> [tuple, ...]``
  over standalone payload buffers (the backward-chain lookup path);
* :func:`build_region_decoder` — ``decoder(buf, base, end, max_rows)
  -> (rows, next_base)`` walking consecutive stored records *inside a
  batch buffer*, record headers included. The scan path uses this to
  decode straight out of the preallocated batches, skipping the
  per-record memoryview slicing of :meth:`BatchManager.scan`.

Each row takes one of two branches:

* **clear bitmap** — no NULLs, so every bitmap test is skipped; an
  all-fixed schema collapses to the codec's single ``_fast_struct``
  unpack, matching :meth:`RowCodec.decode`'s fast path;
* **checked** — per-field NULL tests, as the interpreted decoder does.

The output is bit-for-bit the same as calling ``codec.decode`` (or
``codec.decode_field`` per column) on each row — the differential
tests in ``tests/codegen`` enforce that.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TYPE_CHECKING

from repro.codegen.compiler import _assemble
from repro.errors import CodegenError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rowcodec import RowCodec


class _RowEmitter:
    """Field-decode emission shared by the payload and region builders.

    ``base`` is a source expression for the row's start offset inside
    ``buf`` — the literal ``"0"`` for standalone payloads (offsets fold
    to constants) or a local name like ``"s"`` for the region walker.
    """

    def __init__(self, codec: "RowCodec", buf: str, base: str):
        self.codec = codec
        self.buf = buf
        self.base = base
        self.consts: dict[str, object] = {}
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def at(self, offset: int) -> str:
        if self.base == "0":
            return str(offset)
        return f"{self.base} + {offset}" if offset else self.base

    def _zero_test(self) -> str:
        bitmap_bytes = self.codec._bitmap_bytes
        if bitmap_bytes <= 2:
            return " and ".join(
                f"{self.buf}[{self.at(b)}] == 0" for b in range(bitmap_bytes)
            )
        self.consts["_zbm"] = self.codec._zero_bitmap
        return f"{self.buf}[{self.at(0)}:{self.at(bitmap_bytes)}] == _zbm"

    def _emit_fixed(self, depth: int, i: int, checked: bool) -> None:
        codec = self.codec
        name = f"_u{i}"
        if name not in self.consts:
            unpacker = codec._structs[i]
            assert unpacker is not None
            self.consts[name] = unpacker.unpack_from
        byte, bit = i >> 3, 1 << (i & 7)
        read = f"{name}({self.buf}, {self.at(codec._slots[i])})[0]"
        if checked:
            self.line(
                depth,
                f"f{i} = None if {self.buf}[{self.at(byte)}] & {bit} else {read}",
            )
        else:
            self.line(depth, f"f{i} = {read}")

    def _emit_var(self, depth: int, i: int, checked: bool) -> None:
        codec = self.codec
        buf = self.buf
        make = (
            f"str({buf}[o{i}:o{i}+l{i}], 'utf-8')"
            if i in codec._string_set
            else f"bytes({buf}[o{i}:o{i}+l{i}])"
        )
        unpack = f"o{i}, l{i} = _vs({buf}, {self.at(codec._slots[i])})"
        # Var slots store offsets relative to the row start; rebase them
        # to absolute buffer positions when the row is not at offset 0.
        shift = None if self.base == "0" else f"o{i} += {self.base}"
        if checked:
            byte, bit = i >> 3, 1 << (i & 7)
            self.line(depth, f"if {buf}[{self.at(byte)}] & {bit}:")
            self.line(depth + 1, f"f{i} = None")
            self.line(depth, "else:")
            self.line(depth + 1, unpack)
            if shift:
                self.line(depth + 1, shift)
            self.line(depth + 1, f"f{i} = {make}")
        else:
            self.line(depth, unpack)
            if shift:
                self.line(depth, shift)
            self.line(depth, f"f{i} = {make}")

    def emit_row(self, depth: int, fields: list[int], full_row: bool) -> None:
        """The two-branch decode of one row, appending its tuple."""
        codec = self.codec
        tuple_src = (
            "("
            + ", ".join(f"f{i}" for i in fields)
            + ("," if len(fields) == 1 else "")
            + ")"
        )
        self.line(depth, f"if {self._zero_test()}:")
        if codec._fast_struct is not None and full_row:
            # All-fixed full decode: one struct call for the whole row.
            self.consts["_fs"] = codec._fast_struct.unpack_from
            self.line(
                depth + 1,
                f"_append(_fs({self.buf}, {self.at(codec._bitmap_bytes)}))",
            )
        else:
            for i in fields:
                emit = self._emit_var if codec._is_var[i] else self._emit_fixed
                emit(depth + 1, i, checked=False)
            self.line(depth + 1, f"_append({tuple_src})")
        self.line(depth, "else:")
        for i in fields:
            emit = self._emit_var if codec._is_var[i] else self._emit_fixed
            emit(depth + 1, i, checked=True)
        self.line(depth + 1, f"_append({tuple_src})")

    def assemble(self, params: str):
        # Decoders read raw bitmap bytes on purpose, so the 3VL guard
        # rule does not apply; str/bytes are the only builtins allowed.
        return _assemble(
            "_decode",
            params,
            self,
            allowed_builtins=frozenset({"str", "bytes"}),
            check_null_guards=False,
        )


def _check_fields(
    codec: "RowCodec", columns: Sequence[int] | None
) -> list[int]:
    fields = list(range(codec._n)) if columns is None else list(columns)
    for i in fields:
        if not 0 <= i < codec._n:
            raise CodegenError(f"column ordinal {i} out of range for schema")
    return fields


def build_batch_decoder(
    codec: "RowCodec", columns: Sequence[int] | None = None
) -> Callable[[Iterable[bytes]], list[tuple]]:
    """Compile ``decoder(payloads) -> [row tuple, ...]`` for ``codec``.

    ``columns`` selects (and orders) a subset of field ordinals; the
    default decodes full rows. Each payload must hold exactly one
    encoded row starting at offset 0 (what the batch manager yields).
    """
    # Imported here, not at module level: repro.sql's package init pulls
    # in this module via sql.physical → repro.codegen while
    # core.rowcodec may itself still be mid-import (it imports
    # sql.types). By build time both modules are fully initialized.
    from repro.core.rowcodec import _VAR_SLOT

    fields = _check_fields(codec, columns)
    em = _RowEmitter(codec, "p", "0")
    em.consts["_vs"] = _VAR_SLOT.unpack_from
    em.line(1, "out = []")
    em.line(1, "_append = out.append")
    em.line(1, "for p in payloads:")
    em.emit_row(2, fields, full_row=columns is None)
    em.line(1, "return out")
    return em.assemble("payloads")


def build_region_decoder(
    codec: "RowCodec", columns: Sequence[int] | None = None
) -> Callable[..., tuple[list[tuple], int]]:
    """Compile a batch-buffer walker for ``codec``.

    ``decoder(buf, base, end, max_rows) -> (rows, next_base)`` decodes
    up to ``max_rows`` consecutive stored records (10-byte header +
    payload, the :mod:`repro.core.rowbatch` record layout) starting at
    ``base`` and stopping at the ``end`` watermark. Bounding the rows
    per call keeps scans lazy enough for early-stopping consumers
    (``take``, ``Limit``) without giving back the tight-loop decode.
    """
    from repro.core.rowbatch import _HEADER, HEADER_SIZE
    from repro.core.rowcodec import _VAR_SLOT

    fields = _check_fields(codec, columns)
    em = _RowEmitter(codec, "buf", "s")
    em.consts["_vs"] = _VAR_SLOT.unpack_from
    em.consts["_hdr"] = _HEADER.unpack_from
    em.line(1, "out = []")
    em.line(1, "_append = out.append")
    em.line(1, "while max_rows and base < end:")
    em.line(2, "max_rows -= 1")
    em.line(2, "_prev, _len = _hdr(buf, base)")
    em.line(2, f"s = base + {HEADER_SIZE}")
    em.line(2, "base = s + _len")
    em.emit_row(2, fields, full_row=columns is None)
    em.line(1, "return out, base")
    return em.assemble("buf, base, end, max_rows")


def build_chain_decoder(
    codec: "RowCodec", layout
) -> Callable[..., None]:
    """Compile a backward-chain walker for ``codec`` under ``layout``.

    ``walk(buffers, pointer, _append)`` follows the packed backward
    pointers from ``pointer`` (newest first), decoding each row straight
    out of its batch buffer and feeding the tuples to ``_append``. The
    pointer field shifts/masks of the :class:`PointerLayout` are inlined
    as constants, so the whole cTrie-hit → rows path runs without
    memoryview slicing or an intermediate payload list.
    """
    from repro.core.pointers import NULL_POINTER
    from repro.core.rowbatch import _HEADER, HEADER_SIZE

    from repro.core.rowcodec import _VAR_SLOT

    fields = _check_fields(codec, None)
    em = _RowEmitter(codec, "buf", "s")
    em.consts["_vs"] = _VAR_SLOT.unpack_from
    em.consts["_hdr"] = _HEADER.unpack_from
    batch_shift = layout.offset_bits + layout.size_bits
    em.line(1, f"while pointer != {NULL_POINTER}:")
    em.line(2, f"buf = buffers[pointer >> {batch_shift}]")
    em.line(2, f"o = (pointer >> {layout.size_bits}) & {layout.max_offset}")
    em.line(2, "pointer = _hdr(buf, o)[0]")
    em.line(2, f"s = o + {HEADER_SIZE}")
    em.emit_row(2, fields, full_row=True)
    return em.assemble("buffers, pointer, _append")
