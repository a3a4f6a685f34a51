"""Tests for the DAG scheduler: stages, task failures, metrics."""

from __future__ import annotations

import threading

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.errors import TaskError


class TestStagePlanning:
    def test_narrow_only_is_single_stage(self, ctx):
        before = ctx.scheduler.metrics.stages
        ctx.parallelize(range(10), 2).map(lambda x: x).count()
        assert ctx.scheduler.metrics.stages - before == 1

    def test_shuffle_adds_map_stage(self, ctx):
        before = ctx.scheduler.metrics.stages
        ctx.parallelize([(1, 1)], 2).reduce_by_key(lambda a, b: a + b).count()
        assert ctx.scheduler.metrics.stages - before == 2

    def test_chained_shuffles(self, ctx):
        before = ctx.scheduler.metrics.stages
        (
            ctx.parallelize([(i % 3, 1) for i in range(30)], 3)
            .reduce_by_key(lambda a, b: a + b)
            .map(lambda kv: (kv[1], kv[0]))
            .reduce_by_key(lambda a, b: a + b)
            .count()
        )
        assert ctx.scheduler.metrics.stages - before == 3

    def test_shuffle_reused_across_jobs(self, ctx):
        rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 3).reduce_by_key(
            lambda a, b: a + b
        )
        rdd.count()
        stages_after_first = ctx.scheduler.metrics.stages
        rdd.count()  # map outputs already exist → result stage only
        assert ctx.scheduler.metrics.stages - stages_after_first == 1

    def test_task_counts(self, ctx):
        before = ctx.scheduler.metrics.tasks
        ctx.parallelize(range(10), 5).count()
        assert ctx.scheduler.metrics.tasks - before == 5


class TestFailures:
    def test_task_error_wraps_cause(self, ctx):
        def boom(x):
            raise ValueError("kaput")

        with pytest.raises(TaskError) as exc_info:
            ctx.parallelize([1], 1).map(boom).collect()
        assert isinstance(exc_info.value.cause, ValueError)
        assert "kaput" in str(exc_info.value)

    def test_failure_in_one_partition_fails_job(self, ctx):
        def boom_on_five(x):
            if x == 5:
                raise RuntimeError("partition failure")
            return x

        with pytest.raises(TaskError):
            ctx.parallelize(range(10), 5).map(boom_on_five).collect()

    def test_map_stage_failure_propagates(self, ctx):
        def bad_key(x):
            raise KeyError(x)

        rdd = ctx.parallelize([1, 2], 2).map(bad_key).map(lambda v: (v, 1))
        with pytest.raises(TaskError):
            rdd.reduce_by_key(lambda a, b: a + b).collect()

    def test_engine_usable_after_failure(self, ctx):
        with pytest.raises(TaskError):
            ctx.parallelize([1], 1).map(lambda _x: 1 / 0).collect()
        assert sum(ctx.parallelize([1, 2], 2).collect()) == 3


class TestParallelism:
    def test_single_thread_config_works(self):
        with EngineContext(Config(default_parallelism=2)) as ctx:
            assert sum(ctx.parallelize(range(100), 8).collect()) == 4950

    def test_many_threads_correct(self):
        with EngineContext(Config(default_parallelism=8)) as ctx:
            pairs = ctx.parallelize([(i % 17, 1) for i in range(1000)], 16)
            counts = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
            assert sum(counts.values()) == 1000

    def test_stopped_context_rejects_jobs(self):
        ctx = EngineContext(Config())
        rdd = ctx.parallelize([1], 1)
        ctx.stop()
        with pytest.raises(RuntimeError):
            rdd.collect()

    def test_in_process_tasks_run_on_the_calling_thread(self):
        threads_before = set(threading.enumerate())

        def started_threads() -> set[threading.Thread]:
            return set(threading.enumerate()) - threads_before

        caller = threading.get_ident()
        ran_on: list[tuple[str, int]] = []

        def tag(side: str):
            def record(kv):
                ran_on.append((side, threading.get_ident()))
                return kv

            return record

        config = Config(executors=0)
        with EngineContext(config) as ctx:
            before = ctx.scheduler.metrics.snapshot()
            pairs = ctx.parallelize([(i % 4, 1) for i in range(40)], 4)
            counted = (
                pairs.map(tag("map"))
                .reduce_by_key(lambda a, b: a + b, num_partitions=4)
                .map(tag("result"))
            )
            # Explicit partitions pin the reduce side at 4 tasks: the
            # scheduler never coalesces a job that names its partitions.
            parts = ctx.run_job(counted, list, partitions=range(4))
            after = ctx.scheduler.metrics.snapshot()
            assert started_threads() == set()
        assert sorted(kv for part in parts for kv in part) == [(k, 10) for k in range(4)]
        # One 4-task map stage, one 4-task result stage.
        assert after["stages"] - before["stages"] == 2
        assert after["tasks"] - before["tasks"] == 8
        assert {side for side, _ in ran_on} == {"map", "result"}
        assert {ident for _, ident in ran_on} == {caller}
        assert started_threads() == set()


class TestMetricsSnapshot:
    def test_snapshot_includes_every_counter(self, ctx):
        snap = ctx.scheduler.metrics.snapshot()
        for key in (
            "jobs",
            "stages",
            "tasks",
            "task_failures",
            "task_retries",
            "fetch_failures",
            "recomputed_map_stages",
            "speculative_tasks",
            "speculative_wins",
            "stage_timeouts",
            "index_fallbacks",
            "coalesced_shuffles",
            "coalesced_partitions",
            "runtime_broadcast_joins",
        ):
            assert key in snap, key
        assert snap["stage_timeouts"] == 0

    def test_timed_out_stage_bumps_snapshot_exactly_once(self):
        # _StageClock is the single bump site for ``stage_timeouts``; a
        # timed-out stage must count once in the snapshot no matter how
        # many driver-loop ticks observe the expired deadline.
        import time

        from repro.errors import StageTimeoutError

        context = EngineContext(
            Config(stage_timeout_s=0.05, task_max_retries=3)
        )
        try:
            with pytest.raises(StageTimeoutError):
                context.parallelize(range(4), 4).map(
                    lambda x: time.sleep(0.4) or x
                ).collect()
            assert context.scheduler.metrics.snapshot()["stage_timeouts"] == 1
        finally:
            context.stop()
