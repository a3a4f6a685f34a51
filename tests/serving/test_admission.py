"""Admission control: slots, queueing, shedding, tenant fairness."""

from __future__ import annotations

import threading

import pytest

from repro.errors import QueryCancelledError, QueryRejectedError
from repro.serving.admission import AdmissionController
from repro.engine.query import QueryContext

from tests.serving.conftest import serving_config


def make_controller(**overrides) -> AdmissionController:
    return AdmissionController(serving_config(**overrides))


class TestSlots:
    def test_admits_up_to_max_concurrent(self):
        ctrl = make_controller(
            serving_max_concurrent=3, serving_tenant_max_concurrent=3
        )
        queries = [QueryContext.create() for _ in range(3)]
        for q in queries:
            ctrl.admit(q)
        snap = ctrl.snapshot()
        assert snap["running"] == 3
        assert snap["admitted"] == 3

    def test_release_frees_the_slot(self):
        ctrl = make_controller(serving_max_concurrent=1)
        first = QueryContext.create()
        ctrl.admit(first)
        ctrl.release(first)
        second = QueryContext.create()
        ctrl.admit(second)  # no timeout: the slot was returned
        assert ctrl.snapshot()["running"] == 1

    def test_queued_waiter_granted_on_release(self):
        ctrl = make_controller(
            serving_max_concurrent=1, serving_queue_timeout_s=5.0
        )
        first = QueryContext.create()
        ctrl.admit(first)
        admitted = threading.Event()

        def waiter() -> None:
            ctrl.admit(QueryContext.create())
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            assert not admitted.wait(0.05)  # still queued
            ctrl.release(first)
            assert admitted.wait(2.0)
        finally:
            thread.join(timeout=2.0)
        assert ctrl.snapshot()["queued"] == 0


class TestShedding:
    def test_queue_full_rejects_immediately(self):
        ctrl = make_controller(serving_max_concurrent=1, serving_queue_depth=0)
        ctrl.admit(QueryContext.create())
        with pytest.raises(QueryRejectedError) as exc:
            ctrl.admit(QueryContext.create())
        assert "queue full" in exc.value.reason
        assert exc.value.retry_after_s > 0
        assert ctrl.snapshot()["rejected_queue_full"] == 1

    def test_wait_timeout_rejects_with_retry_after(self):
        ctrl = make_controller(
            serving_max_concurrent=1, serving_queue_timeout_s=0.05
        )
        ctrl.admit(QueryContext.create())
        with pytest.raises(QueryRejectedError) as exc:
            ctrl.admit(QueryContext.create())
        assert exc.value.retry_after_s > 0
        assert ctrl.snapshot()["rejected_timeout"] == 1
        # The timed-out waiter left the queue.
        assert ctrl.snapshot()["queued"] == 0

    def test_expired_deadline_never_waits_full_queue_timeout(self):
        # A query already past its deadline leaves the queue at the
        # first poll (cancelled, reason "deadline") instead of holding a
        # queue position for the 60s queue timeout.
        import time

        ctrl = make_controller(
            serving_max_concurrent=1, serving_queue_timeout_s=60.0
        )
        ctrl.admit(QueryContext.create())
        doomed = QueryContext.create(deadline_s=0.0)
        start = time.monotonic()
        with pytest.raises(QueryCancelledError) as exc:
            ctrl.admit(doomed)
        assert exc.value.reason == "deadline"
        assert time.monotonic() - start < 5.0
        assert ctrl.snapshot()["queued"] == 0

    def test_cancelled_waiter_leaves_the_queue(self):
        ctrl = make_controller(
            serving_max_concurrent=1, serving_queue_timeout_s=5.0
        )
        ctrl.admit(QueryContext.create())
        queued = QueryContext.create()
        errors: list[BaseException] = []

        def waiter() -> None:
            try:
                ctrl.admit(queued)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            queued.cancel("user")
            thread.join(timeout=2.0)
        finally:
            assert not thread.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], QueryCancelledError)
        snap = ctrl.snapshot()
        assert snap["cancelled_in_queue"] == 1
        assert snap["queued"] == 0


class TestTenants:
    def test_tenant_cap_does_not_block_other_tenants(self):
        # Tenant "a" saturates its cap; tenant "b" is admitted ahead of
        # the queued "a" waiter (no cross-tenant head-of-line blocking).
        ctrl = make_controller(
            serving_max_concurrent=4,
            serving_tenant_max_concurrent=1,
            serving_queue_timeout_s=5.0,
        )
        ctrl.admit(QueryContext.create(tenant="a"))
        blocked = threading.Event()

        def waiter() -> None:
            ctrl.admit(QueryContext.create(tenant="a"))
            blocked.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        try:
            assert not blocked.wait(0.05)
            ctrl.admit(QueryContext.create(tenant="b"))  # sails past
            assert ctrl.snapshot()["running"] == 2
        finally:
            # Unblock and drain the queued "a" waiter.
            ctrl.release(QueryContext.create(tenant="a"))
            thread.join(timeout=2.0)

    def test_higher_priority_admitted_first(self):
        ctrl = make_controller(
            serving_max_concurrent=1, serving_queue_timeout_s=5.0
        )
        holder = QueryContext.create()
        ctrl.admit(holder)
        order: list[str] = []
        started = threading.Barrier(3)

        def waiter(name: str, priority: int) -> None:
            query = QueryContext.create(priority=priority)
            started.wait()
            ctrl.admit(query)
            order.append(name)
            ctrl.release(query)

        low = threading.Thread(target=waiter, args=("low", 0))
        high = threading.Thread(target=waiter, args=("high", 5))
        low.start()
        high.start()
        started.wait()
        # Let both enqueue before the slot opens.
        import time

        deadline = time.monotonic() + 2.0
        while ctrl.snapshot()["queued"] < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        ctrl.release(holder)
        low.join(timeout=2.0)
        high.join(timeout=2.0)
        assert order[0] == "high"
