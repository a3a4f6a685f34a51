"""Tests for the row-batch manager (append-only binary buffers)."""

from __future__ import annotations

import pytest

from repro.core.pointers import NULL_POINTER, PointerLayout
from repro.core.rowbatch import HEADER_SIZE, BatchManager
from repro.errors import CapacityError

LAYOUT = PointerLayout.for_geometry(1024, 256)


def make_manager(batch_size: int = 1024) -> BatchManager:
    return BatchManager(PointerLayout.for_geometry(batch_size, 256), batch_size)


class TestAppendRead:
    def test_roundtrip(self):
        manager = make_manager()
        pointer = manager.append(b"hello")
        prev, payload = manager.read(pointer)
        assert prev == NULL_POINTER
        assert bytes(payload) == b"hello"

    def test_prev_pointer_stored(self):
        manager = make_manager()
        first = manager.append(b"v1")
        second = manager.append(b"v2", prev_pointer=first)
        prev, payload = manager.read(second)
        assert prev == first
        assert bytes(payload) == b"v2"

    def test_reserve_names_the_pointer_before_the_write(self):
        manager = make_manager()
        first = manager.append(b"v1")
        reserved = manager.reserve(2)
        assert manager.watermark() == (1, HEADER_SIZE + 2)  # nothing stored yet
        manager.write(b"v2", first)
        assert manager.read(reserved) == (first, memoryview(b"v2"))
        assert manager.append(b"v3", reserved) == manager.layout.pack(
            0, 2 * (HEADER_SIZE + 2), 2
        )

    def test_batch_rollover(self):
        manager = make_manager(batch_size=1024)
        payload = b"x" * 100
        pointers = [manager.append(payload) for _ in range(30)]
        assert manager.num_batches > 1
        for pointer in pointers:
            assert bytes(manager.read(pointer)[1]) == payload

    def test_record_too_big(self):
        manager = make_manager(batch_size=1024)
        # payload limit is the pointer size field (511 for this layout)
        with pytest.raises(CapacityError):
            manager.append(b"x" * 600)

    def test_record_exceeds_batch(self):
        layout = PointerLayout.for_geometry(4 * 1024 * 1024, 1024 * 1024)
        manager = BatchManager(layout, 128)
        with pytest.raises(CapacityError):
            manager.append(b"x" * 200)

    def test_empty_payload(self):
        manager = make_manager()
        pointer = manager.append(b"")
        assert bytes(manager.read(pointer)[1]) == b""

    def test_used_and_allocated_bytes(self):
        manager = make_manager(batch_size=1024)
        manager.append(b"abc")
        assert manager.used_bytes() == HEADER_SIZE + 3
        assert manager.allocated_bytes() == 1024


class TestChain:
    def test_walk_newest_first(self):
        manager = make_manager()
        head = NULL_POINTER
        for i in range(5):
            head = manager.append(f"v{i}".encode(), prev_pointer=head)
        chain = [bytes(p) for p in manager.chain(head)]
        assert chain == [b"v4", b"v3", b"v2", b"v1", b"v0"]

    def test_chain_across_batches(self):
        manager = make_manager(batch_size=1024)
        head = NULL_POINTER
        for i in range(50):
            head = manager.append(b"p" * 50, prev_pointer=head)
        assert manager.num_batches > 1
        assert sum(1 for _ in manager.chain(head)) == 50

    def test_null_chain_is_empty(self):
        manager = make_manager()
        assert list(manager.chain(NULL_POINTER)) == []


class TestScanAndWatermark:
    def test_scan_in_append_order(self):
        manager = make_manager()
        for i in range(10):
            manager.append(f"row{i}".encode())
        assert [bytes(p) for p in manager.scan()] == [
            f"row{i}".encode() for i in range(10)
        ]

    def test_watermark_bounds_scan(self):
        manager = make_manager()
        manager.append(b"before1")
        manager.append(b"before2")
        watermark = manager.watermark()
        manager.append(b"after")
        assert [bytes(p) for p in manager.scan(watermark)] == [b"before1", b"before2"]
        assert len(list(manager.scan())) == 3

    def test_watermark_across_batches(self):
        manager = make_manager(batch_size=1024)
        for i in range(20):
            manager.append(b"z" * 90)
        watermark = manager.watermark()
        for i in range(20):
            manager.append(b"z" * 90)
        assert sum(1 for _ in manager.scan(watermark)) == 20

    def test_scan_while_appending_is_safe(self):
        # memoryviews over preallocated buffers must survive appends.
        manager = make_manager(batch_size=1024)
        manager.append(b"first")
        views = list(manager.scan())
        manager.append(b"second")  # must not raise BufferError
        assert bytes(views[0]) == b"first"

    def test_empty_scan(self):
        assert list(make_manager().scan()) == []
