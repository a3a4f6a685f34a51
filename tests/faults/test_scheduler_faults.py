"""Scheduler fault tolerance: retries, lineage recomputation, deadlines,
speculation, and cancel-on-failure."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.backend import ExecutorBackend
from repro.engine.scheduler import DAGScheduler
from repro.errors import (
    InjectedFault,
    QueryCancelledError,
    RetryExhaustedError,
    StageTimeoutError,
    TaskError,
)
from repro.faults import FaultProfile
from repro.engine.query import QueryContext, active
from tests.faults.conftest import fault_config


class TestTaskRetry:
    def test_injected_crashes_are_retried_to_success(self, make_ctx):
        ctx = make_ctx(
            faults=FaultProfile(seed=0, task_crash_p=1.0, max_fires_per_site=2),
            task_max_retries=4,
        )
        assert ctx.parallelize(range(100), 4).sum() == 4950
        metrics = ctx.scheduler.metrics
        assert metrics.task_failures == 2
        assert metrics.task_retries == 2

    def test_inline_single_task_stage_retries(self, make_ctx):
        ctx = make_ctx(
            faults=FaultProfile(seed=0, task_crash_p=1.0, max_fires_per_site=1),
            task_max_retries=2,
        )
        assert ctx.parallelize([1, 2, 3], 1).collect() == [1, 2, 3]
        assert ctx.scheduler.metrics.task_retries == 1

    def test_retries_disabled_raises_retry_exhausted(self, make_ctx):
        ctx = make_ctx(
            faults=FaultProfile(seed=0, task_crash_p=1.0),
            task_max_retries=0,
        )
        with pytest.raises(RetryExhaustedError) as exc_info:
            ctx.parallelize(range(10), 2).collect()
        assert exc_info.value.attempts == 1
        assert isinstance(exc_info.value.cause, InjectedFault)

    def test_budget_exhaustion_reports_attempts(self, make_ctx):
        ctx = make_ctx(
            faults=FaultProfile(seed=0, task_crash_p=1.0),
            task_max_retries=2,
        )
        with pytest.raises(RetryExhaustedError) as exc_info:
            ctx.parallelize(range(10), 2).collect()
        assert exc_info.value.attempts == 3  # initial + 2 retries

    def test_deterministic_errors_fail_fast(self, make_ctx):
        ctx = make_ctx(task_max_retries=5)

        def boom(x):
            raise ValueError("kaput")

        with pytest.raises(TaskError):
            ctx.parallelize(range(4), 2).map(boom).collect()
        assert ctx.scheduler.metrics.task_retries == 0

    def test_engine_usable_after_exhaustion(self, make_ctx):
        ctx = make_ctx(
            faults=FaultProfile(seed=0, task_crash_p=1.0, max_fires_per_site=10),
            task_max_retries=0,
        )
        with pytest.raises(RetryExhaustedError):
            ctx.parallelize(range(10), 2).collect()
        # The cap heals the injector eventually; the engine must survive.
        while True:
            try:
                assert ctx.parallelize(range(10), 2).sum() == 45
                break
            except RetryExhaustedError:
                continue


class TestLineageRecomputation:
    def test_lost_map_output_is_recomputed(self, make_ctx):
        ctx = make_ctx(
            faults=FaultProfile(seed=0, shuffle_loss_p=1.0, max_fires_per_site=1),
            task_max_retries=4,
        )
        pairs = ctx.parallelize([(i % 5, 1) for i in range(100)], 4)
        counts = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        assert counts == {k: 20 for k in range(5)}
        metrics = ctx.scheduler.metrics
        assert metrics.fetch_failures >= 1
        assert metrics.recomputed_map_stages >= 1
        assert ctx.shuffle_manager.lost_map_outputs == 1

    def test_fetch_failures_do_not_burn_crash_budget(self, make_ctx):
        # A coalesced reduce task reads many map buckets, so a single
        # attempt makes many fetch draws. Those losses are repaired by
        # recomputation and draw on their own budget (4x); charging
        # them against task_max_retries would exhaust a small crash
        # budget in proportion to the coalesce width.
        ctx = make_ctx(
            faults=FaultProfile(seed=3, shuffle_loss_p=1.0, max_fires_per_site=6),
            task_max_retries=2,
            shuffle_partitions=16,
        )
        pairs = ctx.parallelize([(i % 4, 1) for i in range(200)], 4)
        counts = dict(
            pairs.reduce_by_key(lambda a, b: a + b, num_partitions=16).collect()
        )
        assert counts == {k: 50 for k in range(4)}
        metrics = ctx.scheduler.metrics
        assert metrics.fetch_failures > ctx.config.task_max_retries
        assert metrics.coalesced_shuffles >= 1

    def test_repeated_loss_within_budget(self, make_ctx):
        ctx = make_ctx(
            faults=FaultProfile(seed=2, shuffle_loss_p=1.0, max_fires_per_site=3),
            task_max_retries=8,
        )
        pairs = ctx.parallelize([(i % 3, i) for i in range(60)], 4)
        grouped = sorted(
            (k, sorted(vs)) for k, vs in pairs.group_by_key().collect()
        )
        assert [k for k, _ in grouped] == [0, 1, 2]
        assert sum(len(vs) for _, vs in grouped) == 60
        assert ctx.scheduler.metrics.recomputed_map_stages >= 1


class TestStageDeadline:
    def test_deadline_stops_next_task_and_counts_once(self, make_ctx):
        ctx = make_ctx(stage_timeout_s=0.1)
        started: list[int] = []

        def slow(x):
            started.append(x)
            time.sleep(0.5)
            return x

        with pytest.raises(StageTimeoutError, match="stage"):
            ctx.parallelize(range(4), 4).map(slow).collect()
        # The first task overran the deadline; the check before the
        # second task raised, so no later task started.
        assert started == [0]
        assert ctx.scheduler.metrics.stage_timeouts == 1

    def test_fast_stage_within_deadline(self, make_ctx):
        ctx = make_ctx(stage_timeout_s=30.0)
        assert ctx.parallelize(range(10), 4).sum() == 45
        assert ctx.scheduler.metrics.stage_timeouts == 0


class _SuspectSlotBackend(ExecutorBackend):
    """A parallel backend stub: attempts run on the dispatch thread, and
    the slot owning split 0 is SUSPECT. The first attempt at split 0
    stalls there until the test releases it."""

    def __init__(self) -> None:
        self.pool = ThreadPoolExecutor(max_workers=4)
        self.release = threading.Event()
        self.dispatched: list[tuple[int, bool]] = []
        self._lock = threading.Lock()

    def suspect_slots(self) -> frozenset[int]:
        return frozenset({0})

    def slot_for_split(self, split: int) -> int:
        return 0 if split == 0 else 1

    def run_task(self, task, split, attempt=0, prefer_healthy=False):
        with self._lock:
            self.dispatched.append((split, prefer_healthy))
        if split == 0 and not prefer_healthy:
            self.release.wait(timeout=10)
        return task(split)


class TestSpeculation:
    def test_task_on_suspect_slot_gets_backup_that_wins(self, make_ctx):
        ctx = make_ctx()
        backend = _SuspectSlotBackend()
        scheduler = DAGScheduler(ctx.shuffle_manager, fault_config(), backend=backend)
        rdd = ctx.parallelize(range(4), 4).map(lambda x: x * 2)
        try:
            parts = scheduler.run_job(rdd, list)
        finally:
            backend.release.set()
            backend.pool.shutdown(wait=True)
        assert parts == [[0], [2], [4], [6]]
        # The backup went around the suspect slot and finished while
        # the original attempt was still stalled on it.
        assert (0, True) in backend.dispatched
        assert all(split == 0 for split, healthy in backend.dispatched if healthy)
        metrics = scheduler.metrics
        assert metrics.speculative_tasks >= 1
        assert metrics.speculative_wins >= 1


class TestCancelOnFailure:
    def test_doomed_stage_cancels_queued_tasks(self, make_ctx):
        ctx = make_ctx(executor_threads=2)
        started: set[int] = set()
        lock = threading.Lock()

        def task(x):
            with lock:
                started.add(x)
            if x == 0:
                raise ValueError("fail fast")
            time.sleep(0.3)
            return x

        with pytest.raises(TaskError):
            ctx.parallelize(range(12), 12).map(task).collect()
        # With 2 executor threads and an immediate failure, most of the
        # 12 queued tasks must have been cancelled, not drained.
        assert len(started) < 12

    def test_engine_usable_after_cancellation(self, make_ctx):
        ctx = make_ctx(executor_threads=2)

        def task(x):
            if x == 0:
                raise ValueError("fail fast")
            time.sleep(0.05)
            return x

        with pytest.raises(TaskError):
            ctx.parallelize(range(8), 8).map(task).collect()
        assert ctx.parallelize(range(8), 4).sum() == 28

    def test_cancel_by_own_task_stops_the_stage(
        self, make_ctx
    ):
        ctx = make_ctx()
        query = QueryContext.create()
        started: list[int] = []

        def task(x):
            started.append(x)
            if x == 0:
                query.cancel("cancelled by its own task")
            return x

        with active(query):
            with pytest.raises(QueryCancelledError):
                ctx.parallelize(range(4), 4).map(task).collect()
        assert started == [0]
        assert ctx.parallelize(range(4), 4).sum() == 6
