"""Tests for the shuffle manager and shuffle dependencies."""

from __future__ import annotations

import gc
import os
import sys
import threading

import pytest

from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import Aggregator, ShuffleDependency, ShuffleManager
from repro.errors import EngineError
from repro.snb import generate, load_indexed, sq3
from repro.sql.session import Session
from tests.conftest import small_config


def make_dep(num_partitions: int = 4, **kwargs) -> ShuffleDependency:
    return ShuffleDependency(None, HashPartitioner(num_partitions), **kwargs)


class TestShuffleManager:
    def test_write_then_fetch(self):
        manager = ShuffleManager()
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, num_maps=2)
        manager.write_map_output(dep, 0, [(0, "a"), (1, "b")])
        manager.write_map_output(dep, 1, [(2, "c")])
        fetched = {
            reduce_index: sorted(manager.fetch(dep.shuffle_id, reduce_index))
            for reduce_index in range(2)
        }
        all_records = [r for rs in fetched.values() for r in rs]
        assert sorted(all_records) == [(0, "a"), (1, "b"), (2, "c")]
        # every record went to the partitioner-selected bucket
        for reduce_index, records in fetched.items():
            for key, _v in records:
                assert dep.partitioner.partition(key) == reduce_index

    def test_fetch_unregistered_raises(self):
        manager = ShuffleManager()
        with pytest.raises(EngineError):
            list(manager.fetch(12345, 0))

    def test_fetch_incomplete_raises(self):
        manager = ShuffleManager()
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, num_maps=3)
        manager.write_map_output(dep, 0, [])
        with pytest.raises(EngineError, match="incomplete"):
            list(manager.fetch(dep.shuffle_id, 0))

    def test_register_idempotent(self):
        manager = ShuffleManager()
        dep = make_dep()
        manager.register_shuffle(dep.shuffle_id, 1)
        manager.write_map_output(dep, 0, [(1, 1)])
        manager.register_shuffle(dep.shuffle_id, 1)  # must not reset
        assert manager.is_complete(dep.shuffle_id)

    def test_map_side_combine(self):
        manager = ShuffleManager()
        agg = Aggregator(create=lambda v: v, merge=lambda a, b: a + b, combine=lambda a, b: a + b)
        dep = make_dep(1, aggregator=agg, map_side_combine=True)
        manager.register_shuffle(dep.shuffle_id, 1)
        manager.write_map_output(dep, 0, [("k", 1)] * 100)
        records = list(manager.fetch(dep.shuffle_id, 0))
        assert records == [("k", 100)]  # combined before the wire

    def test_map_side_combine_requires_aggregator(self):
        with pytest.raises(EngineError):
            make_dep(map_side_combine=True)

    def test_remove_shuffle(self):
        manager = ShuffleManager()
        dep = make_dep(1)
        manager.register_shuffle(dep.shuffle_id, 1)
        manager.write_map_output(dep, 0, [(1, 1)])
        manager.remove_shuffle(dep.shuffle_id)
        with pytest.raises(EngineError):
            list(manager.fetch(dep.shuffle_id, 0))

    def test_concurrent_map_writes(self):
        manager = ShuffleManager()
        dep = make_dep(4)
        num_maps = 16
        manager.register_shuffle(dep.shuffle_id, num_maps)

        def write(map_index: int) -> None:
            manager.write_map_output(
                dep, map_index, [(map_index * 10 + j, map_index) for j in range(10)]
            )

        threads = [threading.Thread(target=write, args=(i,)) for i in range(num_maps)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manager.is_complete(dep.shuffle_id)
        total = sum(len(list(manager.fetch(dep.shuffle_id, r))) for r in range(4))
        assert total == num_maps * 10

    def test_stats(self):
        manager = ShuffleManager()
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, 1)
        manager.write_map_output(dep, 0, [(i, i) for i in range(7)])
        stats = manager.stats()
        assert stats["shuffles"] == 1
        assert stats["records"] == 7

    def test_shuffle_ids_unique(self):
        ids = {make_dep().shuffle_id for _ in range(10)}
        assert len(ids) == 10

    def test_register_reports_first_registration(self):
        manager = ShuffleManager()
        dep = make_dep(1)
        assert manager.register_shuffle(dep.shuffle_id, 1) is True
        assert manager.register_shuffle(dep.shuffle_id, 1) is False


def _add(a, b):
    return a + b


def _shuffles(ctx) -> int:
    return ctx.shuffle_manager.stats()["shuffles"]


class TestShuffleLifetime:
    """A shuffle's map outputs live exactly as long as its dependency."""

    def test_dead_shuffle_released_by_next_job(self, ctx):
        before = _shuffles(ctx)
        pairs = ctx.parallelize([(i % 3, 1) for i in range(30)], 3)
        pairs.reduce_by_key(_add).collect()
        del pairs
        assert _shuffles(ctx) == before + 1  # still registered: no job ran since
        gc.collect()
        ctx.parallelize([1], 1).count()
        assert _shuffles(ctx) == before

    def test_held_rdd_keeps_its_shuffle(self, ctx):
        pairs = ctx.parallelize([(i % 3, 1) for i in range(30)], 3)
        counts = pairs.reduce_by_key(_add)
        first = sorted(counts.collect())
        for _ in range(5):  # other jobs, whose shuffles die with them
            ctx.parallelize([(i, i) for i in range(10)], 2).reduce_by_key(_add).count()
        gc.collect()
        ctx.parallelize([1], 1).count()
        stages = ctx.scheduler.metrics.stages
        assert sorted(counts.collect()) == first
        assert ctx.scheduler.metrics.stages - stages == 1  # no second map stage

    def test_cached_rdd_keeps_its_shuffle(self, ctx):
        cached = (
            ctx.parallelize([(i % 3, 1) for i in range(30)], 3)
            .reduce_by_key(_add)
            .map(lambda kv: kv)
            .cache()
        )
        cached.count()
        held = _shuffles(ctx)
        gc.collect()
        ctx.parallelize([1], 1).count()
        assert _shuffles(ctx) == held
        assert sorted(cached.collect()) == [(0, 10), (1, 10), (2, 10)]

    def test_concurrent_jobs_release_only_dead_shuffles(self, ctx):
        # Finalizers fire on whichever thread drops the last reference,
        # while other threads' jobs run; a held shuffle must survive.
        held = ctx.parallelize([(i % 3, 1) for i in range(30)], 3).reduce_by_key(_add)
        expected_held = sorted(held.collect())
        baseline = _shuffles(ctx)
        errors: list[BaseException] = []

        def client(seed: int) -> None:
            try:
                for round_ in range(15):
                    pairs = [((seed + round_ + i) % 5, 1) for i in range(50)]
                    got = dict(ctx.parallelize(pairs, 2).reduce_by_key(_add).collect())
                    assert sum(got.values()) == 50
                    assert sorted(held.collect()) == expected_held
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        gc.collect()
        ctx.parallelize([1], 1).count()
        assert _shuffles(ctx) == baseline
        assert sorted(held.collect()) == expected_held

    def test_registry_bounded_over_repeated_queries(self, indexed_session):
        session = indexed_session
        dataset = generate(scale_factor=0.05, seed=3)
        indexed = load_indexed(session, dataset)
        people = dataset.person_ids()
        frame = session.create_dataframe(
            [(i, i % 7) for i in range(200)], [("id", "long"), ("g", "long")]
        )
        frame.create_or_replace_temp_view("t")
        manager = session.ctx.shuffle_manager
        peak = 0
        aggregate = "SELECT g, count(*) FROM t WHERE id > {} GROUP BY g"
        for i in range(200):
            sq3(indexed, people[i % len(people)])
            session.sql(aggregate.format(i)).collect()
            peak = max(peak, manager.stats()["shuffles"])
        # Executions whose shuffles stayed registered would reach
        # hundreds here; released ones leave a handful at most.
        assert peak <= 20, peak
        assert session.ctx.scheduler.metrics.stages > 400

    def test_cluster_spill_dir_stays_empty_across_joins(self):
        config = small_config(executors=2, broadcast_threshold=0)
        with Session(config) as session:
            rows = [(i, i % 5) for i in range(200)]
            labels = [(k, f"g{k}") for k in range(5)]
            session.create_dataframe(
                rows, [("id", "long"), ("k", "long")]
            ).create_or_replace_temp_view("t")
            session.create_dataframe(
                labels, [("lk", "long"), ("name", "string")]
            ).create_or_replace_temp_view("l")
            query = "SELECT t.id, l.name FROM t JOIN l ON t.k = l.lk"
            spill_root = session.ctx.shuffle_manager.spill_root
            spill_files = []
            for _ in range(6):
                assert len(session.sql(query).collect_tuples()) == 200
                gc.collect()
                session.ctx.parallelize([1], 1).count()
                spill_files.append(len(os.listdir(spill_root)))
            # Two map stages and a result stage per join: shuffled, not
            # broadcast, so every join did write spill files.
            assert session.ctx.scheduler.metrics.stages >= 18
        # The join's shuffles died with its plan and took their files.
        assert spill_files == [0] * 6, spill_files
