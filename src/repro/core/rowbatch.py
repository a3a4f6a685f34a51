"""Row batches: append-only binary buffers holding encoded rows.

Each stored row occupies::

    [ prev pointer : 8 bytes ]  backward pointer (packed, NULL at chain end)
    [ length       : 2 bytes ]  payload size
    [ payload      : n bytes ]  RowCodec-encoded row

The 8-byte header *is* the paper's backward-pointer structure: a
per-key linked list threaded through the batches.

Batches are **preallocated** byte arrays written through a cursor —
they never resize, so concurrent readers can safely hold memoryviews
of regions below their snapshot watermark while appends continue
beyond it. Only the append path mutates, and it is serialized by the
owning partition (Spark runs one task per partition).
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from repro.core.pointers import NULL_POINTER, PointerLayout
from repro.errors import CapacityError, SanitizerError

_HEADER = struct.Struct("<QH")  # (prev_pointer, payload_length)
HEADER_SIZE = _HEADER.size  # 10 bytes


class BatchManager:
    """A growable sequence of fixed-capacity byte buffers.

    ``append`` (``reserve`` + ``write``) returns the packed pointer of
    the stored row; ``read`` resolves a packed pointer back to
    (prev_pointer, payload memoryview).
    """

    def __init__(
        self, layout: PointerLayout, batch_size_bytes: int, sanitize: bool = False
    ):
        self.layout = layout
        self.batch_size = batch_size_bytes
        self._batches: list[bytearray] = [bytearray(batch_size_bytes)]
        self._lengths: list[int] = [0]
        #: With sanitizers on, every batch the cursor rolls past is
        #: *sealed*: its CRC is recorded here, and `verify_seals`
        #: re-checks the whole list — any later write to a sealed
        #: region (which snapshots read lock-free) is detected as an
        #: SZ002 invariant violation instead of corrupting readers.
        self.sanitize = sanitize
        self._seals: list[int] = []

    def _seal_crc(self, batch_no: int) -> int:
        end = self._lengths[batch_no]
        return zlib.crc32(memoryview(self._batches[batch_no])[:end])

    def verify_seals(self) -> None:
        """Re-CRC every sealed batch; raise ``SanitizerError`` on drift."""
        for batch_no in range(len(self._seals)):
            if self._seal_crc(batch_no) != self._seals[batch_no]:
                raise SanitizerError(
                    "SZ002",
                    f"sealed batch {batch_no} was modified after sealing "
                    "(CRC mismatch)",
                )

    # ------------------------------------------------------------------

    @property
    def num_batches(self) -> int:
        return len(self._batches)

    @property
    def buffers(self) -> list[bytearray]:
        """The batch buffers, for compiled decoders that resolve packed
        pointers themselves. Read-only by contract: only :meth:`append`
        may write, and only past every snapshot watermark."""
        return self._batches

    def used_bytes(self) -> int:
        return sum(self._lengths)

    def allocated_bytes(self) -> int:
        return len(self._batches) * self.batch_size

    # ------------------------------------------------------------------

    def reserve(self, length: int) -> int:
        """Make room for a ``length``-byte payload; returns the packed
        pointer the next :meth:`write` will store it under.

        A record's pointer depends only on where the cursor stands and
        on the payload's size — not on its backward link — so a caller
        can publish the pointer (as the key's new chain head) and learn
        the previous head in one index operation, then :meth:`write`.
        Rolls to a fresh batch when the record does not fit.

        NOT thread-safe — the owning partition serializes appends,
        matching Spark's one-task-per-partition execution model.
        """
        record_size = HEADER_SIZE + length
        if record_size > self.batch_size:
            raise CapacityError(
                f"record of {record_size} bytes exceeds batch size {self.batch_size}"
            )
        if length > self.layout.max_size:
            raise CapacityError(
                f"payload of {length} bytes exceeds the pointer size field"
            )
        used = self._lengths[-1]
        if used + record_size > self.batch_size:
            if self.sanitize:
                self._seals.append(self._seal_crc(len(self._batches) - 1))
            self._batches.append(bytearray(self.batch_size))
            self._lengths.append(0)
            used = 0
            if len(self._batches) - 1 > self.layout.max_batch:
                raise CapacityError("partition exceeded the addressable batch count")
        return self.layout.pack(len(self._batches) - 1, used, length)

    def write(self, payload: bytes, prev_pointer: int) -> None:
        """Store ``payload`` at the cursor :meth:`reserve` just
        positioned for it, linked back to ``prev_pointer``."""
        batch = self._batches[-1]
        offset = self._lengths[-1]
        start = offset + HEADER_SIZE
        _HEADER.pack_into(batch, offset, prev_pointer, len(payload))
        batch[start : start + len(payload)] = payload
        # Publish the new length only after the bytes are in place, so a
        # racing watermark never covers a half-written record.
        self._lengths[-1] = start + len(payload)

    def append(self, payload: bytes, prev_pointer: int = NULL_POINTER) -> int:
        """Store one encoded row; returns its packed pointer."""
        pointer = self.reserve(len(payload))
        self.write(payload, prev_pointer)
        return pointer

    def read(self, pointer: int) -> tuple[int, memoryview]:
        """Resolve a packed pointer to ``(prev_pointer, payload_view)``."""
        batch_no, offset, size = self.layout.unpack(pointer)
        batch = self._batches[batch_no]
        prev_pointer, length = _HEADER.unpack_from(batch, offset)
        if length != size:
            raise CapacityError(
                f"pointer size {size} disagrees with stored length {length} "
                f"(batch {batch_no}, offset {offset})"
            )
        start = offset + HEADER_SIZE
        return prev_pointer, memoryview(batch)[start : start + length]

    def chain(self, head: int) -> Iterator[memoryview]:
        """Walk a backward-pointer chain from ``head`` (newest first)."""
        pointer = head
        while pointer != NULL_POINTER:
            pointer, payload = self.read(pointer)
            yield payload

    # ------------------------------------------------------------------
    # Durability: checkpoint export / restore
    # ------------------------------------------------------------------

    def export_batches(self) -> list[bytes]:
        """Copy out the used prefix of every batch, for checkpointing.

        The copies are taken while the owning partition holds its
        append lock, so each reflects a record boundary; sealed batches
        additionally get their CRCs re-verified first when sanitizers
        are on (a corrupt batch must never be checkpointed as truth).
        """
        if self.sanitize:
            self.verify_seals()
        return [
            bytes(memoryview(batch)[: self._lengths[i]])
            for i, batch in enumerate(self._batches)
        ]

    @classmethod
    def restore(
        cls,
        layout: PointerLayout,
        batch_size_bytes: int,
        exported: list[bytes],
        sanitize: bool = False,
    ) -> "BatchManager":
        """Rebuild a manager from :meth:`export_batches` output.

        Buffers are re-padded to the configured batch size (packed
        pointers address ``(batch, offset)`` so the used prefix must
        land at the same offsets) and sealed batches are re-sealed from
        the restored bytes.
        """
        manager = cls(layout, batch_size_bytes, sanitize=sanitize)
        if not exported:
            return manager
        for data in exported:
            if len(data) > batch_size_bytes:
                raise CapacityError(
                    f"restored batch of {len(data)} bytes exceeds the "
                    f"configured batch size {batch_size_bytes}"
                )
        manager._batches = [
            bytearray(data) + bytearray(batch_size_bytes - len(data))
            for data in exported
        ]
        manager._lengths = [len(data) for data in exported]
        if sanitize:
            manager._seals = [
                manager._seal_crc(i) for i in range(len(exported) - 1)
            ]
        return manager

    def watermark(self) -> tuple[int, int]:
        """Current append frontier: ``(batch_count, last_batch_length)``.

        Records at or beyond the watermark were appended later; a
        snapshot scan stops there.
        """
        count = len(self._batches)
        return count, self._lengths[count - 1]

    def regions(
        self,
        watermark: tuple[int, int] | None = None,
        batches: "frozenset[int] | set[int] | None" = None,
    ) -> Iterator[tuple[bytearray, int]]:
        """``(buffer, end)`` per batch, bounded by ``watermark``.

        The bulk counterpart of :meth:`scan`: a compiled region decoder
        (:func:`repro.codegen.decoders.build_region_decoder`) walks each
        buffer's records in place instead of this side yielding one
        memoryview per record. Reading below the watermark is safe for
        the same reason memoryviews are — batches never resize and only
        the append path writes, always past the watermark.

        ``batches`` restricts the walk to those batch numbers — the
        zone-map skip path. Callers guarantee skipped batches cannot
        contain matching rows.
        """
        if watermark is None:
            watermark = self.watermark()
        batch_count, last_length = watermark
        for batch_no in range(batch_count):
            if batches is not None and batch_no not in batches:
                continue
            if batch_no == batch_count - 1:
                end = last_length
            else:
                end = self._lengths[batch_no]
            if end:
                yield self._batches[batch_no], end

    def scan(
        self,
        watermark: tuple[int, int] | None = None,
        batches: "frozenset[int] | set[int] | None" = None,
    ) -> Iterator[memoryview]:
        """Yield every payload in append order, bounded by ``watermark``.

        ``batches`` restricts the scan to those batch numbers, as in
        :meth:`regions`.
        """
        if watermark is None:
            watermark = self.watermark()
        batch_count, last_length = watermark
        for batch_no in range(batch_count):
            if batches is not None and batch_no not in batches:
                continue
            batch = self._batches[batch_no]
            if batch_no == batch_count - 1:
                end = last_length
            else:
                end = self._lengths[batch_no]
            view = memoryview(batch)
            offset = 0
            while offset < end:
                _prev, length = _HEADER.unpack_from(batch, offset)
                start = offset + HEADER_SIZE
                yield view[start : start + length]
                offset = start + length

    def records(
        self, watermark: tuple[int, int] | None = None
    ) -> Iterator[tuple[int, memoryview]]:
        """Yield ``(packed_pointer, payload_view)`` in append order.

        Like :meth:`scan`, but also reconstructs each record's packed
        pointer from its position — what a secondary index attached
        after rows already exist needs to backfill itself.
        """
        if watermark is None:
            watermark = self.watermark()
        batch_count, last_length = watermark
        pack = self.layout.pack
        for batch_no in range(batch_count):
            batch = self._batches[batch_no]
            if batch_no == batch_count - 1:
                end = last_length
            else:
                end = self._lengths[batch_no]
            view = memoryview(batch)
            offset = 0
            while offset < end:
                _prev, length = _HEADER.unpack_from(batch, offset)
                start = offset + HEADER_SIZE
                yield pack(batch_no, offset, length), view[start : start + length]
                offset = start + length

    def __repr__(self) -> str:
        return (
            f"BatchManager({self.num_batches} batches, "
            f"{self.used_bytes()} bytes used)"
        )
