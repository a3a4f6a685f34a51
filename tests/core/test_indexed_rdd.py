"""Tests for the Indexed Row-Batch RDD and lookup RDD."""

from __future__ import annotations

import pytest

from repro.core import create_index
from repro.core.indexed_rdd import IndexedRowBatchRDD, IndexLookupRDD
from repro.engine.partitioner import HashPartitioner

SCHEMA = [("id", "long"), ("name", "string"), ("score", "double")]


@pytest.fixture()
def snapshots(indexed_session):
    df = indexed_session.create_dataframe(
        [(i, f"row{i}", float(i)) for i in range(100)], SCHEMA
    )
    indexed = create_index(df, "id")
    return indexed_session.ctx, indexed.version.snapshots


class TestIndexedRowBatchRDD:
    def test_full_scan(self, snapshots):
        ctx, snaps = snapshots
        rdd = IndexedRowBatchRDD(ctx, snaps)
        rows = rdd.collect()
        assert sorted(r[0] for r in rows) == list(range(100))
        assert rdd.num_partitions == len(snaps)

    def test_reports_hash_partitioner(self, snapshots):
        ctx, snaps = snapshots
        rdd = IndexedRowBatchRDD(ctx, snaps)
        assert rdd.partitioner == HashPartitioner(len(snaps))

    def test_column_pruned_decode(self, snapshots):
        ctx, snaps = snapshots
        rdd = IndexedRowBatchRDD(ctx, snaps, columns=[1])
        names = sorted(r[0] for r in rdd.collect())
        assert names[0] == "row0" and len(names) == 100

    def test_column_order_respected(self, snapshots):
        ctx, snaps = snapshots
        rdd = IndexedRowBatchRDD(ctx, snaps, columns=[2, 0])
        row = sorted(rdd.collect())[0]
        assert row == (0.0, 0)

    def test_engine_ops_compose(self, snapshots):
        ctx, snaps = snapshots
        rdd = IndexedRowBatchRDD(ctx, snaps)
        total = sum(rdd.map(lambda r: r[2]).collect())
        assert total == sum(float(i) for i in range(100))


class TestIndexLookupRDD:
    def test_routes_keys_to_partitions(self, snapshots):
        ctx, snaps = snapshots
        rdd = IndexLookupRDD(ctx, snaps, keys=[5, 50, 99])
        rows = sorted(rdd.collect())
        assert [r[0] for r in rows] == [5, 50, 99]

    def test_missing_keys_yield_nothing(self, snapshots):
        ctx, snaps = snapshots
        assert IndexLookupRDD(ctx, snaps, keys=[12345]).collect() == []

    def test_null_and_duplicate_keys_skipped(self, snapshots):
        ctx, snaps = snapshots
        rdd = IndexLookupRDD(ctx, snaps, keys=[None, 7, 7, 7])
        assert [r[0] for r in rdd.collect()] == [7]

    def test_empty_key_list(self, snapshots):
        ctx, snaps = snapshots
        assert IndexLookupRDD(ctx, snaps, keys=[]).collect() == []
