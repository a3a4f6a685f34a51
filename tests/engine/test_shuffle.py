"""Tests for the shuffle manager and shuffle dependencies."""

from __future__ import annotations

import dataclasses
import gc
import os
import sys
import threading

import pytest

from repro.cluster.shuffle import ClusterShuffleManager
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import Aggregator, ShuffleDependency, ShuffleManager
from repro.errors import EngineError, FetchFailedError
from repro.faults import FaultInjector, FaultProfile
from repro.snb import generate, load_indexed, sq3
from repro.sql.session import Session
from tests.conftest import small_config


def make_dep(num_partitions: int = 4, **kwargs) -> ShuffleDependency:
    return ShuffleDependency(None, HashPartitioner(num_partitions), **kwargs)


def write(manager: ShuffleManager, dep: ShuffleDependency, map_index: int, records) -> None:
    """One map task's output, written through the manager's medium and
    committed, as a map stage does it."""
    output = manager.map_writer(dep)(map_index, records)
    manager.commit_map_outputs(dep.shuffle_id, [output])


class TestShuffleManager:
    """The registry contract on the in-memory medium.

    :class:`TestSpillShuffleManager` inherits every case and runs it on
    spill files: one registry, two media, one contract.
    """

    @pytest.fixture()
    def make_manager(self):
        return lambda injector=None: ShuffleManager(injector)

    @pytest.fixture()
    def manager(self, make_manager):
        return make_manager()

    def test_write_then_fetch(self, manager):
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, num_maps=2)
        write(manager, dep, 0, [(0, "a"), (1, "b")])
        write(manager, dep, 1, [(2, "c")])
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

    def test_fetch_unregistered_raises(self, manager):
        with pytest.raises(EngineError):
            list(manager.fetch(12345, 0))

    def test_fetch_incomplete_raises(self, manager):
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, num_maps=3)
        write(manager, dep, 0, [])
        with pytest.raises(EngineError, match="incomplete"):
            list(manager.fetch(dep.shuffle_id, 0))

    def test_register_idempotent(self, manager):
        dep = make_dep()
        manager.register_shuffle(dep.shuffle_id, 1)
        write(manager, dep, 0, [(1, 1)])
        manager.register_shuffle(dep.shuffle_id, 1)  # must not reset
        assert manager.is_complete(dep.shuffle_id)

    def test_map_side_combine(self, manager):
        agg = Aggregator(create=lambda v: v, merge=lambda a, b: a + b, combine=lambda a, b: a + b)
        dep = make_dep(1, aggregator=agg, map_side_combine=True)
        manager.register_shuffle(dep.shuffle_id, 1)
        write(manager, dep, 0, [("k", 1)] * 100)
        records = list(manager.fetch(dep.shuffle_id, 0))
        assert records == [("k", 100)]  # combined before the wire

    def test_map_side_combine_requires_aggregator(self):
        with pytest.raises(EngineError):
            make_dep(map_side_combine=True)

    def test_remove_shuffle(self, manager):
        dep = make_dep(1)
        manager.register_shuffle(dep.shuffle_id, 1)
        write(manager, dep, 0, [(1, 1)])
        manager.remove_shuffle(dep.shuffle_id)
        stats = manager.stats()
        assert (stats["shuffles"], stats["records"]) == (0, 0)
        with pytest.raises(EngineError):
            list(manager.fetch(dep.shuffle_id, 0))

    def test_concurrent_map_writes(self, manager):
        dep = make_dep(4)
        num_maps = 16
        manager.register_shuffle(dep.shuffle_id, num_maps)

        def write_one(map_index: int) -> None:
            write(manager, dep, map_index, [(map_index * 10 + j, map_index) for j in range(10)])

        threads = [threading.Thread(target=write_one, args=(i,)) for i in range(num_maps)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manager.is_complete(dep.shuffle_id)
        total = sum(len(list(manager.fetch(dep.shuffle_id, r))) for r in range(4))
        assert total == num_maps * 10

    def test_stats(self, manager):
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, 1)
        write(manager, dep, 0, [(i, i) for i in range(7)])
        stats = manager.stats()
        assert stats["shuffles"] == 1
        assert stats["records"] == 7

    def test_shuffle_ids_unique(self):
        ids = {make_dep().shuffle_id for _ in range(10)}
        assert len(ids) == 10

    def test_register_reports_first_registration(self, manager):
        dep = make_dep(1)
        assert manager.register_shuffle(dep.shuffle_id, 1) is True
        assert manager.register_shuffle(dep.shuffle_id, 1) is False

    def test_reduce_sizes_none_until_complete_then_summed(self, manager):
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, 2)
        assert manager.reduce_sizes(dep.shuffle_id) is None
        write(manager, dep, 0, [(0, "a"), (1, "b"), (2, "c")])
        assert manager.reduce_sizes(dep.shuffle_id) is None
        write(manager, dep, 1, [(0, "d"), (1, "e")])
        sizes = manager.reduce_sizes(dep.shuffle_id)
        rows = [0, 0]
        for key in (0, 1, 2, 0, 1):
            rows[dep.partitioner.partition(key)] += 1
        assert [r for r, _bytes in sizes] == rows
        assert all(est > 0 for r, est in sizes if r)

    def test_missing_map_indices(self, manager):
        dep = make_dep(2)
        assert manager.missing_map_indices(dep.shuffle_id) == []
        manager.register_shuffle(dep.shuffle_id, 3)
        write(manager, dep, 1, [(1, 1)])
        assert manager.missing_map_indices(dep.shuffle_id) == [0, 2]

    def test_injected_fetch_loss_names_its_victim(self, make_manager):
        injector = FaultInjector(FaultProfile(seed=3, shuffle_loss_p=1.0, max_fires_per_site=1))
        manager = make_manager(injector)
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, 3)
        for map_index in range(3):
            write(manager, dep, map_index, [(map_index, map_index)])
        with pytest.raises(FetchFailedError) as failure:
            manager.fetch(dep.shuffle_id, 0)
        victim = failure.value.map_index
        assert victim in range(3)
        assert manager.missing_map_indices(dep.shuffle_id) == [victim]
        assert manager.lost_map_outputs == 1
        write(manager, dep, victim, [(victim, victim)])
        assert sorted(manager.fetch(dep.shuffle_id, 0)) == sorted(
            (k, k) for k in range(3) if dep.partitioner.partition(k) == 0
        )

    def test_duplicate_commit_keeps_the_first_output(self, manager):
        dep = make_dep(1)
        manager.register_shuffle(dep.shuffle_id, 1)
        dropped: list = []
        discard = manager.discard

        def record(outputs):
            outputs = list(outputs)
            dropped.extend(outputs)
            discard(outputs)

        manager.discard = record
        first = manager.map_writer(dep)(0, [(0, "first")])
        second = manager.map_writer(dep)(0, [(0, "second")])
        manager.commit_map_outputs(dep.shuffle_id, [first])
        manager.commit_map_outputs(dep.shuffle_id, [second])
        assert dropped == [second]
        assert list(manager.fetch(dep.shuffle_id, 0)) == [(0, "first")]

    def test_on_complete_runs_once_under_the_completing_commit(self, manager):
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, 2)
        calls: list = []

        def on_complete(sizes):
            calls.append((sizes, manager._lock.locked()))

        writer = manager.map_writer(dep)
        commit = manager.commit_map_outputs
        commit(dep.shuffle_id, [writer(0, [(0, "a")])], on_complete=on_complete)
        assert calls == []
        commit(dep.shuffle_id, [writer(1, [(1, "b")])], on_complete=on_complete)
        assert calls == [(manager.reduce_sizes(dep.shuffle_id), True)]
        commit(dep.shuffle_id, [writer(1, [(1, "b")])], on_complete=on_complete)
        assert len(calls) == 1

    def test_commit_with_num_maps_re_registers(self, manager):
        dep = make_dep(1)
        output = manager.map_writer(dep)(0, [(0, "a")])
        manager.commit_map_outputs(dep.shuffle_id, [output], num_maps=1)
        assert manager.is_complete(dep.shuffle_id)

    def test_remove_only_incomplete_keeps_a_complete_shuffle(self, manager):
        done, partial = make_dep(1), make_dep(1)
        manager.register_shuffle(done.shuffle_id, 1)
        manager.register_shuffle(partial.shuffle_id, 2)
        write(manager, done, 0, [(0, 0)])
        write(manager, partial, 0, [(0, 0)])
        manager.remove_shuffle(done.shuffle_id, only_incomplete=True)
        manager.remove_shuffle(partial.shuffle_id, only_incomplete=True)
        assert manager.is_complete(done.shuffle_id)
        assert manager.missing_map_indices(partial.shuffle_id) == []
        assert manager.stats()["shuffles"] == 1


class TestSpillShuffleManager(TestShuffleManager):
    """Every registry case again, with spill files as the medium."""

    @pytest.fixture()
    def make_manager(self, tmp_path):
        return lambda injector=None: ClusterShuffleManager(str(tmp_path), injector)

    def test_remove_shuffle_unlinks_its_files(self, manager):
        dep = make_dep(2)
        manager.register_shuffle(dep.shuffle_id, 2)
        write(manager, dep, 0, [(0, 0)])
        write(manager, dep, 1, [(1, 1)])
        assert len(os.listdir(manager.spill_root)) == 2
        manager.remove_shuffle(dep.shuffle_id)
        assert os.listdir(manager.spill_root) == []

    def test_duplicate_commit_unlinks_its_file(self, manager):
        dep = make_dep(1)
        manager.register_shuffle(dep.shuffle_id, 1)
        first = manager.map_writer(dep)(0, [(0, "first")])
        second = manager.map_writer(dep)(0, [(0, "second")])
        manager.commit_map_outputs(dep.shuffle_id, [first, second])
        assert os.listdir(manager.spill_root) == [os.path.basename(first.path)]

    def test_fenced_generation_commit_is_rejected(self, manager):
        dep = make_dep(1)
        manager.register_shuffle(dep.shuffle_id, 2)
        live = manager.map_writer(dep)(0, [(0, "live")])
        zombie = dataclasses.replace(
            manager.map_writer(dep)(1, [(1, "zombie")]), slot=0, generation=1
        )
        manager.note_fenced(0, 1)
        manager.commit_map_outputs(dep.shuffle_id, [live, zombie])
        assert manager.missing_map_indices(dep.shuffle_id) == [1]
        assert manager.stats()["stale_commits_rejected"] == 1
        assert os.listdir(manager.spill_root) == [os.path.basename(live.path)]


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
