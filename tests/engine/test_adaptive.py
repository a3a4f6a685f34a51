"""Adaptive exchange: runtime coalescing of tiny reduce partitions.

The scheduler merges adjacent reduce buckets from recorded map-output
sizes. The tests pin down both directions of the contract: when it may
fire (internal aggregation shuffles) and when it must not (explicit
placement, explicit partition lists, index-sensitive jobs).
"""

from __future__ import annotations

import pytest

from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner
from tests.conftest import small_config


@pytest.fixture()
def adaptive_ctx():
    context = EngineContext(small_config(shuffle_partitions=16))
    yield context
    context.stop()


def tiny_reduce(ctx, n_keys=4, rows=200):
    return (
        ctx.parallelize([(i % n_keys, 1) for i in range(rows)], 4)
        .reduce_by_key(lambda a, b: a + b, num_partitions=16)
    )


class TestCoalescing:
    def test_fires_and_preserves_results(self, adaptive_ctx):
        before = adaptive_ctx.scheduler.metrics.snapshot()
        got = sorted(tiny_reduce(adaptive_ctx).collect())
        after = adaptive_ctx.scheduler.metrics.snapshot()
        assert got == [(k, 50) for k in range(4)]
        assert after["coalesced_shuffles"] > before["coalesced_shuffles"]
        assert after["coalesced_partitions"] > before["coalesced_partitions"]

    def test_downstream_ops_see_merged_partitions(self, adaptive_ctx):
        result = (
            tiny_reduce(adaptive_ctx)
            .map(lambda kv: (kv[0], kv[1] * 2))
            .collect()
        )
        assert sorted(result) == [(k, 100) for k in range(4)]

    def test_chained_shuffles_coalesce_independently(self, adaptive_ctx):
        rdd = (
            tiny_reduce(adaptive_ctx)
            .map(lambda kv: (kv[1], [kv[0]]))
            .reduce_by_key(lambda a, b: a + b, num_partitions=16)
        )
        result = {k: sorted(v) for k, v in rdd.collect()}
        assert result == {50: [0, 1, 2, 3]}
        metrics = adaptive_ctx.scheduler.metrics.snapshot()
        assert metrics["coalesced_shuffles"] >= 2


class TestCoalescingExclusions:
    def test_partition_by_is_a_placement_contract(self, adaptive_ctx):
        partitioner = HashPartitioner(16)
        rdd = (
            adaptive_ctx.parallelize([(i, i) for i in range(32)], 4)
            .partition_by(partitioner)
        )
        parts = adaptive_ctx.run_job(rdd, list)
        assert len(parts) == 16
        for index, part in enumerate(parts):
            for key, _value in part:
                assert partitioner.partition(key) == index

    def test_explicit_partitions_skip_coalescing(self, adaptive_ctx):
        rdd = tiny_reduce(adaptive_ctx)
        before = adaptive_ctx.scheduler.metrics.snapshot()["coalesced_shuffles"]
        parts = adaptive_ctx.run_job(rdd, list, partitions=[0, 3, 7])
        after = adaptive_ctx.scheduler.metrics.snapshot()["coalesced_shuffles"]
        assert after == before
        assert len(parts) == 3

    def test_index_sensitive_job_skips_coalescing(self, adaptive_ctx):
        rdd = tiny_reduce(adaptive_ctx).map_partitions_with_index(
            lambda index, it: [(index, sum(1 for _ in it))]
        )
        counts = dict(rdd.collect())
        assert len(counts) == 16  # partition numbering preserved
        assert sum(counts.values()) == 4
        metrics = adaptive_ctx.scheduler.metrics.snapshot()
        assert metrics["coalesced_shuffles"] == 0


class TestShuffleSizes:
    def test_reduce_sizes_recorded(self, adaptive_ctx):
        rdd = tiny_reduce(adaptive_ctx)
        rdd.collect()
        sizes = adaptive_ctx.shuffle_manager.reduce_sizes(rdd.shuffle_dep.shuffle_id)
        assert sizes is not None and len(sizes) == 16
        # map-side combine: each of the 4 map tasks emits one combined
        # record per key, so 16 records land in the key buckets
        total_rows = sum(rows for rows, _bytes in sizes)
        assert total_rows == 16
        # only the 4 key buckets are non-empty
        assert sum(1 for rows, _ in sizes if rows) == len(
            {HashPartitioner(16).partition(k) for k in range(4)}
        )
