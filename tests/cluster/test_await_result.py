"""How the driver awaits a dispatched task's result, at stage level.

On ``executors=2`` the job's own thread dispatches a stage's tasks and
waits on the slots' futures, polling the stage clock and the query every
tick. A cancelled or deadline-expired query must unwind even while its
worker task never replies, a live query must still receive a late reply,
and a doomed stage's attempts still queued on a slot must never reach a
worker. Stopping the backend resolves every task it was handed, the
queued ones included.

The tasks are module-level functions, pickled by reference, so the
worker runs this module's copy of them. The events and the run counter
they touch are created at import, before any test forks its workers,
which inherit them; the tests meet the workers on those, never on
sleeps.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import threading
import time

import pytest

from repro.cluster import process_backend
from repro.engine.context import EngineContext
from repro.engine.query import QueryContext, active
from repro.errors import EngineError, QueryCancelledError, TaskError
from tests.conftest import small_config

#: Bound on every wait, so a regression fails instead of hanging.
WAIT_S = 30.0
#: Bound on the driver's unwinding once its query is cancelled: many of
#: the stage loop's ticks, far below a task that never replies.
UNWIND_S = 2.0
#: Bound on stop() with a worker that never replies: the busy worker is
#: killed at once, far below the idle slots' join timeouts.
STOP_S = 1.0

_FORK = multiprocessing.get_context("fork")
_STARTED = _FORK.Event()
_GATE = _FORK.Event()
#: Never set: a task waiting on it parks until its worker is killed,
#: which leaves the event unusable.
_NEVER = _FORK.Event()
#: Worker-side executions per split.
_RUNS = _FORK.Array("i", 8)


def _stall_split0(x: int) -> int:
    """Split 0 waits for the gate, never polling cancellation."""
    _RUNS[x] += 1
    if x == 0:
        _STARTED.set()
        _GATE.wait(WAIT_S)
    return x


def _park_split0(x: int) -> int:
    """Split 0 parks for good; the backend's stop() kills its worker."""
    _RUNS[x] += 1
    if x == 0:
        _STARTED.set()
        _NEVER.wait(WAIT_S)
    return x


def _fail_split1(x: int) -> int:
    """Split 1 fails at once, which dooms the stage; split 0 stalls."""
    if x == 1:
        raise ValueError("split 1 fails")
    return _stall_split0(x)


@pytest.fixture()
def ctx():
    _STARTED.clear()
    _GATE.clear()
    _RUNS[:] = [0] * len(_RUNS)
    context = EngineContext(small_config(executors=2), process_backend)
    try:
        yield context
    finally:
        _GATE.set()
        context.stop()


def _stalled_job(ctx: EngineContext) -> list[int]:
    return ctx.parallelize(range(2), 2).map(_stall_split0).collect()


def test_resolved_future_returns_immediately(ctx):
    _GATE.set()
    before = ctx.backend.stats()["tasks_dispatched"]
    assert _stalled_job(ctx) == [0, 1]
    stats = ctx.backend.stats()
    assert stats["tasks_dispatched"] - before == 2
    assert stats["codec_fallbacks"] == 0


def test_task_exception_is_reraised(ctx):
    _GATE.set()
    with pytest.raises(TaskError) as info:
        ctx.parallelize(range(2), 2).map(_fail_split1).collect()
    assert isinstance(info.value.cause, ValueError)
    assert ctx.scheduler.metrics.task_retries == 0


def test_cancelled_query_unblocks_the_wait(ctx):
    query = QueryContext.create()
    out: list = []

    def run() -> None:
        with active(query):
            try:
                out.append(_stalled_job(ctx))
            except QueryCancelledError as exc:
                out.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    assert _STARTED.wait(WAIT_S)
    start = time.monotonic()
    query.cancel("user")
    thread.join(WAIT_S)
    assert time.monotonic() - start < UNWIND_S
    assert len(out) == 1 and isinstance(out[0], QueryCancelledError)
    # The worker task never replied: only the driver's poll unwound.
    assert not _GATE.is_set()


def test_expired_deadline_unblocks_the_wait(ctx):
    query = QueryContext.create(deadline_s=0.3)
    with active(query), pytest.raises(QueryCancelledError):
        _stalled_job(ctx)
    assert time.monotonic() - query.deadline < UNWIND_S
    assert _STARTED.is_set() and not _GATE.is_set()


def test_live_query_still_receives_a_late_result(ctx):
    query = QueryContext.create()  # unbounded, never cancelled
    timer = threading.Timer(0.12, _GATE.set)
    timer.start()
    try:
        with active(query):
            assert _stalled_job(ctx) == [0, 1]
    finally:
        timer.cancel()
    assert _STARTED.is_set()


def test_doomed_stage_never_runs_its_queued_attempts(ctx):
    # Slot 0 runs split 0, stalled, with splits 2, 4 and 6 queued behind
    # it; split 1 fails on slot 1 and dooms the stage.
    with pytest.raises(TaskError):
        ctx.parallelize(range(8), 8).map(_fail_split1).collect()
    _GATE.set()
    # A later job's slot-0 task queues behind the cancelled attempts, so
    # once it returns the slot has passed over them.
    assert ctx.parallelize(range(2), 2).collect() == [0, 1]
    assert [_RUNS[split] for split in (0, 2, 4, 6)] == [1, 0, 0, 0]
    assert ctx.backend.stats()["codec_fallbacks"] == 0


def test_stop_resolves_every_queued_task(ctx):
    # Split 0 parks on slot 0 with splits 2 and 4 queued behind it.
    futures = [ctx.backend.run_task(_park_split0, split) for split in (0, 2, 4)]
    assert _STARTED.wait(WAIT_S)
    start = time.monotonic()
    ctx.stop()
    assert time.monotonic() - start < STOP_S
    assert all(future.done() for future in futures)
    assert not any(slot.process.is_alive() for slot in ctx.backend._slots)
    assert glob.glob(f"/dev/shm/repro_{os.getpid()}_*") == []
    for future in futures:
        assert isinstance(future.exception(), EngineError)
    assert [_RUNS[split] for split in (0, 2, 4)] == [1, 0, 0]
    with pytest.raises(EngineError, match="stopped"):
        ctx.backend.run_task(_park_split0, 1)
