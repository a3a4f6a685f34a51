"""Admission control: bounded queue, tenant quotas, load shedding.

The controller sits in front of query execution. A query either gets a
slot (bounded global and per-tenant concurrency), waits in a bounded
priority queue, or is **shed** with a typed
:class:`~repro.errors.QueryRejectedError` carrying a retry-after hint —
never an unbounded wait. Waiters poll their cancellation token, so a
query cancelled (or past its deadline) while queued leaves the queue
immediately instead of occupying a slot it can no longer use.

Ordering: waiters are served highest priority first, FIFO within a
priority. A waiter blocked only by its *tenant* cap does not block
other tenants (no head-of-line blocking across tenants): the first
waiter in order whose tenant has headroom is granted.
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import insort

from repro.config import Config
from repro.errors import InjectedFault, QueryRejectedError
from repro.faults import NULL_INJECTOR, FaultInjector
from repro.engine.query import QueryContext

#: Waiter poll tick: bounds how late a queued query notices cancellation.
_WAIT_TICK_S = 0.02


class _Waiter:
    __slots__ = ("key", "query")

    def __init__(self, key: tuple[int, int], query: QueryContext):
        self.key = key
        self.query = query

    def __lt__(self, other: "_Waiter") -> bool:
        return self.key < other.key


class AdmissionController:
    """Grants execution slots; sheds load beyond the configured budgets."""

    def __init__(
        self,
        config: Config,
        injector: FaultInjector | None = None,
        clock=time.monotonic,
    ):
        self._config = config
        self._injector = injector or NULL_INJECTOR
        self._clock = clock
        self._cond = threading.Condition()
        self._seq = itertools.count()
        self._running = 0  # guarded-by: _cond
        self._per_tenant: dict[str, int] = {}  # guarded-by: _cond
        self._waiters: list[_Waiter] = []  # guarded-by: _cond
        # -- counters surfaced by snapshot() --
        self.submitted = 0  # guarded-by: _cond
        self.admitted = 0  # guarded-by: _cond
        self.rejected_queue_full = 0  # guarded-by: _cond
        self.rejected_timeout = 0  # guarded-by: _cond
        self.rejected_injected = 0  # guarded-by: _cond
        self.cancelled_in_queue = 0  # guarded-by: _cond
        self.peak_queue_depth = 0  # guarded-by: _cond

    # ------------------------------------------------------------------

    def _tenant_running(self, tenant: str) -> int:  # requires-lock: _cond
        return self._per_tenant.get(tenant, 0)

    def _first_grantable(self) -> _Waiter | None:  # requires-lock: _cond
        """First waiter (in priority order) with global + tenant headroom."""
        if self._running >= self._config.serving_max_concurrent:
            return None
        cap = self._config.serving_tenant_max_concurrent
        for waiter in self._waiters:
            if self._tenant_running(waiter.query.tenant) < cap:
                return waiter
        return None

    def _grant(self, waiter: _Waiter) -> None:  # requires-lock: _cond
        self._waiters.remove(waiter)
        self._running += 1
        tenant = waiter.query.tenant
        self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + 1
        self.admitted += 1

    def _retry_after(self) -> float:
        """Backoff hint: the queue drain horizon, scaled by depth."""
        with self._cond:
            depth = len(self._waiters)
        return self._config.serving_queue_timeout_s * max(1, depth)

    # ------------------------------------------------------------------

    def admit(self, query: QueryContext) -> None:
        """Block until ``query`` holds a slot, or shed it.

        Raises :class:`QueryRejectedError` when the queue is full or the
        wait budget (queue timeout, capped by the query's own deadline)
        expires, and :class:`~repro.errors.QueryCancelledError` when the
        query is cancelled while waiting. On success the caller owns a
        slot and must :meth:`release` it.
        """
        try:
            self._injector.maybe_fail("serving.admit")
        except InjectedFault as exc:
            with self._cond:
                self.submitted += 1
                self.rejected_injected += 1
            raise QueryRejectedError(
                "injected admission fault", self._retry_after(), query.tenant
            ) from exc

        timeout = self._config.serving_queue_timeout_s
        rem = query.remaining()
        if rem is not None:
            timeout = min(timeout, max(rem, 0.0))
        give_up = self._clock() + timeout

        with self._cond:
            self.submitted += 1
            waiter = _Waiter((-query.priority, next(self._seq)), query)
            insort(self._waiters, waiter)
            # Immediate grant first: queue-depth limits *waiting*
            # queries, so a query a free slot can absorb is never shed
            # even with a zero-depth queue.
            if self._first_grantable() is waiter:
                self._grant(waiter)
                return
            if len(self._waiters) > self._config.serving_queue_depth:
                self._waiters.remove(waiter)
                self.rejected_queue_full += 1
                raise QueryRejectedError(
                    f"admission queue full ({len(self._waiters)} waiting)",
                    self._config.serving_queue_timeout_s * (len(self._waiters) + 1),
                    query.tenant,
                )
            self.peak_queue_depth = max(self.peak_queue_depth, len(self._waiters))
            try:
                while True:
                    # Self-grant only: each waiter claims its own slot
                    # when it is the first in order with headroom, so no
                    # thread ever holds a grant it does not know about.
                    if self._first_grantable() is waiter:
                        self._grant(waiter)
                        return
                    try:
                        query.check()
                    except BaseException:
                        self.cancelled_in_queue += 1
                        raise
                    now = self._clock()
                    if now >= give_up:
                        self.rejected_timeout += 1
                        raise QueryRejectedError(
                            f"no slot within {timeout:.3f}s "
                            f"(running={self._running}, "
                            f"queued={len(self._waiters)})",
                            self._config.serving_queue_timeout_s
                            * max(1, len(self._waiters)),
                            query.tenant,
                        )
                    self._cond.wait(timeout=min(_WAIT_TICK_S, give_up - now))
            except BaseException:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                self._cond.notify_all()
                raise

    def release(self, query: QueryContext) -> None:
        """Return ``query``'s slot; wakes queued waiters."""
        with self._cond:
            self._running = max(0, self._running - 1)
            tenant = query.tenant
            left = self._per_tenant.get(tenant, 0) - 1
            if left > 0:
                self._per_tenant[tenant] = left
            else:
                self._per_tenant.pop(tenant, None)
            self._cond.notify_all()

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        with self._cond:
            return {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected_queue_full": self.rejected_queue_full,
                "rejected_timeout": self.rejected_timeout,
                "rejected_injected": self.rejected_injected,
                "cancelled_in_queue": self.cancelled_in_queue,
                "running": self._running,
                "queued": len(self._waiters),
                "peak_queue_depth": self.peak_queue_depth,
            }
