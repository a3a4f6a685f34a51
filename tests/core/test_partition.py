"""Tests for IndexedPartition: append, lookup, snapshots, concurrency."""

from __future__ import annotations

import threading

import pytest

from repro.core.partition import IndexedPartition
from repro.core.pointers import PointerLayout
from repro.core.rowbatch import HEADER_SIZE
from repro.sql.types import LongType, StringType, StructField, StructType

SCHEMA = StructType(
    [
        StructField("key", LongType(), nullable=False),
        StructField("value", StringType()),
    ]
)


@pytest.fixture()
def partition() -> IndexedPartition:
    layout = PointerLayout.for_geometry(4096, 512)
    return IndexedPartition(SCHEMA, 0, layout, 4096, 512)


class TestAppendLookup:
    def test_single_row(self, partition):
        partition.append((1, "hello"))
        assert list(partition.lookup(1)) == [(1, "hello")]
        assert partition.row_count == 1

    def test_missing_key(self, partition):
        partition.append((1, "x"))
        assert list(partition.lookup(2)) == []

    def test_multi_version_newest_first(self, partition):
        for i in range(5):
            partition.append((7, f"v{i}"))
        assert [v for _k, v in partition.lookup(7)] == ["v4", "v3", "v2", "v1", "v0"]

    def test_distinct_keys_chain_separately(self, partition):
        partition.append((1, "a"))
        partition.append((2, "b"))
        partition.append((1, "c"))
        assert [v for _k, v in partition.lookup(1)] == ["c", "a"]
        assert [v for _k, v in partition.lookup(2)] == ["b"]
        assert partition.key_count() == 2

    def test_append_many(self, partition):
        rows = [(i % 10, f"row{i}") for i in range(100)]
        assert partition.append_many(rows) == 100
        assert partition.row_count == 100
        assert len(list(partition.lookup(3))) == 10

    def test_null_key_storable(self, partition):
        partition.append((None, "nothing"))  # type: ignore[arg-type]
        assert list(partition.lookup(None)) == [(None, "nothing")]

    def test_scan_in_append_order(self, partition):
        rows = [(i, f"r{i}") for i in range(20)]
        partition.append_many(rows)
        assert list(partition.scan()) == rows


class TestSnapshots:
    def test_snapshot_is_frozen(self, partition):
        partition.append((1, "old"))
        snapshot = partition.snapshot()
        partition.append((1, "new"))
        partition.append((2, "other"))
        assert [v for _k, v in snapshot.lookup(1)] == ["old"]
        assert not snapshot.contains(2)
        assert len(snapshot) == 1
        assert list(snapshot.scan()) == [(1, "old")]

    def test_lookup_head(self, partition):
        partition.append((1, "first"))
        partition.append((1, "second"))
        snapshot = partition.snapshot()
        assert snapshot.lookup_head(1) == (1, "second")
        assert snapshot.lookup_head(9) is None

    def test_snapshot_keys(self, partition):
        partition.append_many([(i, "x") for i in range(10)])
        snapshot = partition.snapshot()
        assert sorted(snapshot.keys()) == list(range(10))

    def test_version_chain(self, partition):
        snapshots = []
        for i in range(5):
            partition.append((1, f"v{i}"))
            snapshots.append(partition.snapshot())
        for i, snap in enumerate(snapshots):
            assert snap.lookup_head(1) == (1, f"v{i}")
            assert len(snap) == i + 1


class TestSnapshotMemo:
    """An untouched partition hands out its last snapshot again: no new
    trie generation for the next writer to re-copy paths into."""

    def test_same_snapshot_until_a_row_arrives(self, partition):
        partition.append_many([(i, "x") for i in range(10)])
        first = partition.snapshot()
        assert partition.snapshot() is first
        partition.append_many([])  # an empty batch changes nothing
        assert partition.snapshot() is first
        partition.append((3, "y"))
        second = partition.snapshot()
        assert second is not first
        assert len(first) == 10 and len(second) == 11
        assert [v for _k, v in first.lookup(3)] == ["x"]

    def test_attaching_an_index_invalidates(self, partition):
        partition.append((1, "a"))
        first = partition.snapshot()
        partition.attach_bitmap_index(1)
        second = partition.snapshot()
        assert second is not first and first.bitmaps is None and 1 in second.bitmaps

    def test_memo_does_not_keep_the_snapshot_alive(self, partition):
        import weakref

        partition.append((1, "a"))
        ref = weakref.ref(partition.snapshot())
        assert ref() is None  # nobody held it: the partition does not either
        assert partition.snapshot().lookup_head(1) == (1, "a")

    def test_memo_hit_still_verifies_seals(self):
        from repro.errors import SanitizerError

        layout = PointerLayout.for_geometry(256, 64)
        partition = IndexedPartition(SCHEMA, 0, layout, 256, 64, sanitizers=True)
        partition.append_many([(i, "v" * 20) for i in range(30)])
        assert partition.batches.num_batches > 1
        held = partition.snapshot()
        partition.batches.buffers[0][12] ^= 0xFF  # corrupt a sealed batch
        with pytest.raises(SanitizerError):
            partition.snapshot()
        assert held is not None


class TestAppendLocking:
    def test_rows_are_encoded_before_the_lock_is_taken(self, partition, monkeypatch):
        encode = partition.codec.encode
        held_during_encode = []

        def spying_encode(row):
            held_during_encode.append(partition._append_lock.locked())
            return encode(row)

        monkeypatch.setattr(partition.codec, "encode", spying_encode)
        partition.append_many([(i, "x") for i in range(5)])
        partition.append((9, "y"))
        assert held_during_encode == [False] * 6
        assert partition.row_count == 6

    def test_a_bad_row_stores_nothing(self, partition):
        from repro.errors import ReproError

        with pytest.raises((ReproError, TypeError, ValueError)):
            partition.append_many([(1, "ok"), (2, "x" * 10_000)])
        assert partition.row_count == 0 and list(partition.scan()) == []


class TestConcurrency:
    def test_appends_race_snapshots(self, partition):
        errors = []
        stop = threading.Event()

        def appender():
            try:
                for i in range(2000):
                    partition.append((i % 50, f"value{i}"))
            finally:
                stop.set()

        def snapshotter():
            try:
                while not stop.is_set():
                    snap = partition.snapshot()
                    rows = list(snap.scan())
                    assert len(rows) == len(snap)
                    for key, value in rows:
                        assert value.startswith("value")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=appender)] + [
            threading.Thread(target=snapshotter) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert partition.row_count == 2000

    def test_concurrent_appenders_serialize(self, partition):
        def appender(base):
            partition.append_many([(base + i, "x") for i in range(500)])

        threads = [
            threading.Thread(target=appender, args=(b * 10_000,)) for b in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert partition.row_count == 2000
        assert len(list(partition.scan())) == 2000


class TestAccounting:
    def test_memory_stats(self, partition):
        partition.append_many([(i % 10, "payload") for i in range(100)])
        stats = partition.memory_stats()
        assert stats["rows"] == 100
        assert stats["index_entries"] == 10
        assert stats["data_bytes"] > 0
        assert stats["header_bytes"] == 100 * 10  # 10-byte headers
        assert stats["allocated_bytes"] >= stats["data_bytes"]


class TestBatchSizeSweep:
    """The row-batch size is a configurable knob (paper §2): any size
    stores the same rows and answers the same lookups, however many
    batches a key's backward chain crosses."""

    ROWS = 20_000
    KEYS = ROWS // 10  # 10 versions per key

    @pytest.mark.parametrize(
        "batch_size", [64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024]
    )
    def test_same_rows_same_lookups(self, batch_size):
        rows = [(i % self.KEYS, f"payload-{i:08d}" * 3) for i in range(self.ROWS)]
        layout = PointerLayout.for_geometry(batch_size, 1024)
        partition = IndexedPartition(SCHEMA, 0, layout, batch_size, 1024)
        partition.append_many(rows)
        key = self.KEYS // 2
        newest_first = [row for row in reversed(rows) if row[0] == key]
        assert len(newest_first) == 10
        assert list(partition.snapshot().lookup(key)) == newest_first
        # A record rolls to a fresh batch when it does not fit.
        expected, used = 1, 0
        for row in rows:
            record = HEADER_SIZE + len(partition.codec.encode(row))
            if used + record > batch_size:
                expected, used = expected + 1, 0
            used += record
        assert partition.batches.num_batches == expected
