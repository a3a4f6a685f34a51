"""The driver-side task wait polls cancellation (CP002 regression).

``run_task`` used to end in a bare ``box.result()`` — a cancelled or
deadline-expired query could not unwind until its in-flight worker
task replied. ``_await_result`` waits in ticks and polls the query
between them, bounding cancellation latency at the driver.
"""

import threading
from concurrent.futures import Future

import pytest

from repro.cluster.backend import _await_result
from repro.errors import QueryCancelledError
from repro.engine.query import QueryContext


def test_resolved_future_returns_immediately():
    box = Future()
    box.set_result(41)
    assert _await_result(box, None) == 41


def test_task_exception_is_reraised():
    box = Future()
    box.set_exception(ValueError("task blew up"))
    with pytest.raises(ValueError):
        _await_result(box, None)


def test_cancelled_query_unblocks_the_wait():
    box = Future()  # never resolves: the worker never replies
    query = QueryContext.create()
    query.cancel("user abort")
    with pytest.raises(QueryCancelledError):
        _await_result(box, query)


def test_expired_deadline_unblocks_the_wait():
    box = Future()
    query = QueryContext.create(deadline_s=0.0)
    with pytest.raises(QueryCancelledError):
        _await_result(box, query)


def test_live_query_still_receives_a_late_result():
    box = Future()
    query = QueryContext.create()  # unbounded, never cancelled
    timer = threading.Timer(0.12, box.set_result, args=("late",))
    timer.start()
    try:
        assert _await_result(box, query) == "late"
    finally:
        timer.cancel()
