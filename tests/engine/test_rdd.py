"""Tests for RDD transformations and actions."""

from __future__ import annotations

import pytest

from repro.engine.partitioner import HashPartitioner


class TestNarrowTransformations:
    def test_map(self, ctx):
        assert ctx.parallelize([1, 2, 3], 2).map(lambda x: x * 2).collect() == [2, 4, 6]

    def test_filter(self, ctx):
        rdd = ctx.parallelize(range(10), 3).filter(lambda x: x % 2 == 0)
        assert rdd.collect() == [0, 2, 4, 6, 8]

    def test_flat_map(self, ctx):
        rdd = ctx.parallelize([1, 2], 1).flat_map(lambda x: [x] * x)
        assert rdd.collect() == [1, 2, 2]

    def test_map_partitions_sees_whole_partition(self, ctx):
        rdd = ctx.parallelize(range(10), 2).map_partitions(lambda it: [sum(it)])
        assert sorted(rdd.collect()) == [10, 35]

    def test_map_partitions_with_index(self, ctx):
        rdd = ctx.parallelize(range(4), 2).map_partitions_with_index(
            lambda i, it: [(i, list(it))]
        )
        assert rdd.collect() == [(0, [0, 1]), (1, [2, 3])]

    def test_key_by(self, ctx):
        assert ctx.parallelize([1, 2], 1).key_by(lambda x: -x).collect() == [
            (-1, 1),
            (-2, 2),
        ]

    def test_union_concatenates(self, ctx):
        a = ctx.parallelize([1, 2], 2)
        b = ctx.parallelize([3], 1)
        u = a.union(b)
        assert u.num_partitions == 3
        assert u.collect() == [1, 2, 3]

    def test_sample_deterministic(self, ctx):
        rdd = ctx.parallelize(range(1000), 4)
        first = rdd.sample(0.1, seed=3).collect()
        second = rdd.sample(0.1, seed=3).collect()
        assert first == second
        assert 20 < len(first) < 300

    def test_sample_fraction_bounds(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([1], 1).sample(1.5)

    def test_filter_preserves_partitioner(self, ctx):
        pairs = ctx.parallelize([(i, i) for i in range(20)], 2)
        shuffled = pairs.partition_by(HashPartitioner(4))
        filtered = shuffled.filter(lambda kv: kv[0] > 5)
        assert filtered.partitioner == HashPartitioner(4)


class TestWideTransformations:
    def test_partition_by_routes_keys(self, ctx):
        pairs = ctx.parallelize([(i, i) for i in range(40)], 4)
        shuffled = pairs.partition_by(HashPartitioner(5))
        parts = shuffled.map_partitions(lambda it: [list(it)]).collect()
        partitioner = HashPartitioner(5)
        for index, part in enumerate(parts):
            for key, _value in part:
                assert partitioner.partition(key) == index

    def test_partition_by_noop_when_co_partitioned(self, ctx):
        pairs = ctx.parallelize([(i, i) for i in range(10)], 2)
        once = pairs.partition_by(HashPartitioner(4))
        twice = once.partition_by(HashPartitioner(4))
        assert twice is once

    def test_reduce_by_key(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(30)], 4)
        assert dict(pairs.reduce_by_key(lambda a, b: a + b).collect()) == {
            0: 10,
            1: 10,
            2: 10,
        }

    def test_cogroup(self, ctx):
        left = ctx.parallelize([(1, "a"), (2, "b")], 2)
        right = ctx.parallelize([(1, "x"), (3, "y")], 2)
        grouped = dict(
            (k, (sorted(ls), sorted(rs)))
            for k, (ls, rs) in left.cogroup(right).collect()
        )
        assert grouped == {1: (["a"], ["x"]), 2: (["b"], []), 3: ([], ["y"])}

    def test_distinct(self, ctx):
        assert sorted(ctx.parallelize([1, 2, 2, 3, 3, 3], 3).distinct().collect()) == [
            1,
            2,
            3,
        ]

    def test_sort_by_ascending_and_descending(self, ctx):
        data = [5, 1, 4, 2, 3, 9, 7, 8, 6, 0]
        rdd = ctx.parallelize(data, 3)
        assert rdd.sort_by(lambda x: x).collect() == sorted(data)
        assert rdd.sort_by(lambda x: x, ascending=False).collect() == sorted(
            data, reverse=True
        )

    def test_sort_by_single_computation(self, ctx):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        ctx.parallelize(range(50), 2).map(spy).sort_by(lambda x: x).collect()
        # The upstream map must run exactly once per element (the sort
        # materializes before sampling).
        assert len(calls) == 50

    @pytest.mark.parametrize("ascending", [True, False])
    def test_one_partition_sort_matches_the_range_sort(self, ctx, ascending):
        # Ties included: both paths keep equal keys in input order.
        data = [(k % 7, i) for i, k in enumerate([5, 1, 4, 2, 3, 9, 7, 8, 6, 0] * 3)]
        ranged = ctx.parallelize(data, 3).sort_by(lambda r: r[0], ascending)
        local = ctx.parallelize(data, 1).sort_by(lambda r: r[0], ascending)
        assert local.num_partitions == 1
        assert local.collect() == ranged.collect() == sorted(
            data, key=lambda r: r[0], reverse=not ascending
        )

    def test_one_partition_sort_starts_no_job(self, ctx):
        jobs = ctx.scheduler.metrics.snapshot()["jobs"]
        sorted_rdd = ctx.parallelize([3, 1, 2], 1).sort_by(lambda x: x)
        assert ctx.scheduler.metrics.snapshot()["jobs"] == jobs
        ctx.parallelize([3, 1, 2], 2).sort_by(lambda x: x)  # materializes, samples
        assert ctx.scheduler.metrics.snapshot()["jobs"] > jobs
        assert sorted_rdd.collect() == [1, 2, 3]


class TestActions:
    def test_collect_preserves_partition_order(self, ctx):
        assert ctx.parallelize(range(10), 3).collect() == list(range(10))

    def test_count(self, ctx):
        assert ctx.parallelize(range(101), 7).count() == 101

    def test_take_stops_early(self, ctx):
        seen = []

        def spy(x):
            seen.append(x)
            return x

        result = ctx.parallelize(range(100), 10).map(spy).take(3)
        assert result == [0, 1, 2]
        assert len(seen) < 100  # did not materialize everything

    def test_take_more_than_available(self, ctx):
        assert ctx.parallelize([1, 2], 2).take(10) == [1, 2]

    def test_take_zero(self, ctx):
        assert ctx.parallelize([1], 1).take(0) == []


class TestCaching:
    def test_cache_avoids_recompute(self, ctx):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(10), 2).map(spy).cache()
        assert rdd.count() == 10
        assert rdd.count() == 10
        assert len(calls) == 10  # second count served from cache

    def test_unpersist_recomputes(self, ctx):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = ctx.parallelize(range(4), 1).map(spy).cache()
        rdd.count()
        rdd.unpersist()
        assert not rdd.is_cached
        rdd.count()
        assert len(calls) == 8

    def test_cached_shuffle_output_stable(self, ctx):
        pairs = ctx.parallelize([(i % 5, 1) for i in range(50)], 4)
        reduced = pairs.reduce_by_key(lambda a, b: a + b).cache()
        first = sorted(reduced.collect())
        second = sorted(reduced.collect())
        assert first == second == [(k, 10) for k in range(5)]
