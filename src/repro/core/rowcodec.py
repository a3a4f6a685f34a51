"""Binary row encoding (the "unsafe array" format of the row batches).

Layout of one encoded row, in the family of Spark's UnsafeRow::

    [ null bitmap : ceil(n/8) bytes ]
    [ fixed region: one slot per field ]
    [ variable region: string/bytes payloads ]

Fixed-width fields (ints, doubles, booleans, timestamps) occupy their
natural width in the fixed region. Variable-width fields (strings,
bytes) occupy a 4-byte slot — ``(offset:u16, length:u16)`` relative to
the row start — pointing into the variable region.

A :class:`RowCodec` is built once per schema and reused for every
row; encoding and decoding are symmetric and round-trip exactly.
"""

from __future__ import annotations

import struct
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import CapacityError, SchemaError
from repro.sql.types import BinaryType, DataType, StringType, StructType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.expressions import Expression

_VAR_SLOT = struct.Struct("<HH")  # (offset, length) for var-width fields


class RowCodec:
    """Schema-driven encoder/decoder for row tuples."""

    def __init__(self, schema: StructType, max_row_bytes: int = 1024):
        if max_row_bytes > 0xFFFF:
            # The var-width slots address (offset, length) as u16, so
            # nothing past 64 KiB is reachable; rejecting the config up
            # front beats a struct.error mid-encode.
            raise CapacityError(
                f"max_row_bytes={max_row_bytes} exceeds the 65535-byte "
                "addressing limit of the u16 var-width slots"
            )
        self.schema = schema
        self.max_row_bytes = max_row_bytes
        self._n = len(schema)
        self._bitmap_bytes = (self._n + 7) // 8

        self._is_var: list[bool] = []
        self._structs: list[struct.Struct | None] = []
        self._slots: list[int] = []
        cursor = self._bitmap_bytes
        for field in schema:
            dtype: DataType = field.dtype
            if isinstance(dtype, (StringType, BinaryType)):
                self._is_var.append(True)
                self._structs.append(None)
                self._slots.append(cursor)
                cursor += _VAR_SLOT.size
            else:
                if dtype.struct_code is None or dtype.fixed_width is None:
                    raise SchemaError(f"type {dtype!r} is not encodable")
                self._is_var.append(False)
                self._structs.append(struct.Struct("<" + dtype.struct_code))
                self._slots.append(cursor)
                cursor += dtype.fixed_width
        self._fixed_end = cursor
        self._string_fields = [
            i for i, f in enumerate(schema) if isinstance(f.dtype, StringType)
        ]

        # Fast path: with no var-width fields, the whole fixed region
        # decodes with ONE struct call when the null bitmap is clear —
        # the moral equivalent of Spark's word-aligned UnsafeRow reads.
        if not any(self._is_var):
            fmt = "<" + "".join(
                f.dtype.struct_code for f in schema  # type: ignore[misc]
            )
            self._fast_struct: struct.Struct | None = struct.Struct(fmt)
        else:
            self._fast_struct = None
        self._zero_bitmap = bytes(self._bitmap_bytes)

    @property
    def fixed_size(self) -> int:
        """Encoded size of a row with empty variable region."""
        return self._fixed_end

    # ------------------------------------------------------------------

    def encode(self, row: Sequence[Any]) -> bytes:
        """Encode a tuple; raises :class:`CapacityError` beyond the
        configured maximum row size."""
        if len(row) != self._n:
            raise SchemaError(
                f"row has {len(row)} values, codec expects {self._n}"
            )
        if self._fast_struct is not None and None not in row:
            buf = bytearray(self._fixed_end)
            try:
                self._fast_struct.pack_into(buf, self._bitmap_bytes, *row)
            except struct.error as exc:
                raise SchemaError(f"row {row!r} does not fit schema: {exc}") from exc
            return bytes(buf)
        # Variable payloads first, to know the total size.
        var_payloads: list[bytes | None] = [None] * self._n
        var_total = 0
        for i, value in enumerate(row):
            if self._is_var[i] and value is not None:
                payload = value.encode("utf-8") if isinstance(value, str) else bytes(value)
                var_payloads[i] = payload
                var_total += len(payload)

        total = self._fixed_end + var_total
        if total > self.max_row_bytes:
            raise CapacityError(
                f"encoded row is {total} bytes, exceeding the configured "
                f"maximum of {self.max_row_bytes}"
            )
        if total > 0xFFFF:
            raise CapacityError("row exceeds 64 KiB addressing of var slots")

        buf = bytearray(total)
        var_cursor = self._fixed_end
        for i, value in enumerate(row):
            if value is None:
                buf[i >> 3] |= 1 << (i & 7)
                continue
            slot = self._slots[i]
            if self._is_var[i]:
                payload = var_payloads[i]
                assert payload is not None
                _VAR_SLOT.pack_into(buf, slot, var_cursor, len(payload))
                buf[var_cursor : var_cursor + len(payload)] = payload
                var_cursor += len(payload)
            else:
                packer = self._structs[i]
                assert packer is not None
                try:
                    packer.pack_into(buf, slot, value)
                except struct.error as exc:
                    raise SchemaError(
                        f"value {value!r} does not fit field "
                        f"{self.schema[i].name!r}: {exc}"
                    ) from exc
        return bytes(buf)

    def decode(self, buffer: bytes | bytearray | memoryview, base: int = 0) -> tuple:
        """Decode one row starting at ``base`` in ``buffer``."""
        if self._fast_struct is not None and (
            buffer[base : base + self._bitmap_bytes] == self._zero_bitmap
        ):
            return self._fast_struct.unpack_from(buffer, base + self._bitmap_bytes)
        out: list[Any] = [None] * self._n
        for i in range(self._n):
            if buffer[base + (i >> 3)] & (1 << (i & 7)):
                continue
            slot = base + self._slots[i]
            if self._is_var[i]:
                offset, length = _VAR_SLOT.unpack_from(buffer, slot)
                raw = bytes(buffer[base + offset : base + offset + length])
                out[i] = raw.decode("utf-8") if i in self._string_set else raw
            else:
                unpacker = self._structs[i]
                assert unpacker is not None
                out[i] = unpacker.unpack_from(buffer, slot)[0]
        return tuple(out)

    @property
    def _string_set(self) -> frozenset[int]:
        cached = getattr(self, "_string_set_cache", None)
        if cached is None:
            cached = frozenset(self._string_fields)
            self._string_set_cache = cached
        return cached

    # ------------------------------------------------------------------

    def _memo(self, key: tuple, build: Callable[[], Callable]) -> Callable:
        """The decoder cached under ``key``, built on first use."""
        cache = getattr(self, "_decoder_cache", None)
        if cache is None:
            cache = {}
            self._decoder_cache = cache
        decoder = cache.get(key)
        if decoder is None:
            decoder = build()
            cache[key] = decoder
        return decoder

    def batch_decoder(
        self, columns: Sequence[int] | None = None
    ) -> Callable[[Iterable[bytes]], list[tuple]]:
        """A compiled ``payloads -> [row tuple, ...]`` bulk decoder.

        Decoders are generated once per (codec, column subset) and
        memoized on the codec; results are identical to calling
        :meth:`decode` row by row (and picking ``columns`` from it).
        """
        from repro.codegen.decoders import build_batch_decoder

        key = ("batch", None if columns is None else tuple(columns))
        return self._memo(key, lambda: build_batch_decoder(self, columns))

    def region_decoder(
        self,
        columns: Sequence[int] | None = None,
        predicate: "Expression | None" = None,
    ) -> Callable[..., tuple[list[tuple], int]]:
        """A batch-buffer walker, memoized like :meth:`batch_decoder`.

        ``decoder(buf, base, end, max_rows) -> (rows, next_base)``
        decodes consecutive stored records (header + payload) straight
        out of a row-batch buffer; see
        :func:`repro.codegen.decoders.build_region_decoder`. With a
        bound ``predicate`` the walker returns only the rows it keeps
        (:func:`repro.codegen.decoders.build_filter_decoder`); those
        are built per call, from cached templates.
        """
        from repro.codegen.decoders import build_filter_decoder, build_region_decoder

        key = ("region", None if columns is None else tuple(columns))
        decode = self._memo(key, lambda: build_region_decoder(self, columns))
        if predicate is None:
            return decode
        return build_filter_decoder(self, columns, predicate, decode)

    def chain_decoder(self, layout) -> Callable[..., None]:
        """A compiled backward-chain walker, memoized per pointer layout.

        ``walk(buffers, pointer, append)`` decodes every row of a
        backward chain (newest first) straight from the batch buffers;
        see :func:`repro.codegen.decoders.build_chain_decoder`.
        """
        from repro.codegen.decoders import build_chain_decoder

        key = ("chain", layout.batch_bits, layout.offset_bits, layout.size_bits)
        return self._memo(key, lambda: build_chain_decoder(self, layout))


# ----------------------------------------------------------------------
# Shared codec registry
# ----------------------------------------------------------------------

#: Structural-key registry of codecs. ``StructType`` defines equality
#: but not hashing, so the key flattens the schema to hashable parts.
_CODEC_REGISTRY: dict[tuple, RowCodec] = {}
_registry_lock = threading.Lock()


def _schema_key(schema: StructType, max_row_bytes: int) -> tuple:
    return (
        tuple((f.name, f.dtype.name, f.nullable) for f in schema),
        max_row_bytes,
    )


def codec_for(schema: StructType, max_row_bytes: int = 1024) -> RowCodec:
    """A shared :class:`RowCodec` for ``schema``.

    Structurally identical schemas map to the same instance, so scans,
    ingestion, and ``appendRows`` reuse one codec (and its memoized
    batch decoders) instead of rebuilding the slot layout every time.
    """
    key = _schema_key(schema, max_row_bytes)
    with _registry_lock:
        codec = _CODEC_REGISTRY.get(key)
        if codec is None:
            codec = RowCodec(schema, max_row_bytes)
            _CODEC_REGISTRY[key] = codec
        return codec
