"""The serving runtime: admission → planning → execution.

One :class:`ServingRuntime` per :class:`~repro.sql.session.Session`
(created only when ``Config.serving_enabled``). ``Session.serve()``
funnels every query through :meth:`ServingRuntime.execute`:

1. **admit** — the admission controller grants a slot or sheds the
   query (:class:`~repro.errors.QueryRejectedError`);
2. **plan** — analyze/optimize/plan as usual; the plan stays
   inspectable through ``last_execution_plan``;
3. **execute** — the query context is activated on the driver thread;
   the scheduler propagates it into tasks, and every poll site
   (driver loops, shuffle fetch, codegen chunk loops) enforces the
   deadline / cancellation cooperatively. A query that cannot finish
   inside its deadline is cancelled with reason ``"deadline"``;
4. **settle** — slots, memory charges, and queue positions are released
   on every exit path, success or typed failure.

The runtime also owns the per-site :class:`CircuitBreaker` registry
(index fallback, shuffle fetch, WAL fsync) — see
:mod:`repro.serving.breaker`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import QueryCancelledError, QueryRejectedError
from repro.serving.admission import AdmissionController
from repro.serving.breaker import CircuitBreaker
from repro.engine.query import QueryContext, activate, deactivate
from repro.serving.memory import MemoryGovernor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.session import Session


@dataclass
class ServingResult:
    """Outcome of one served query."""

    query_id: str
    tenant: str
    rows: list[tuple]
    elapsed_s: float

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ServingMetrics:
    """Cumulative front-end counters."""

    submitted: int = 0  # guarded-by: _lock
    completed: int = 0  # guarded-by: _lock
    rejected: int = 0  # guarded-by: _lock
    cancelled: int = 0  # guarded-by: _lock
    deadline_cancelled: int = 0  # guarded-by: _lock
    memory_cancelled: int = 0  # guarded-by: _lock
    failed: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                name: getattr(self, name)
                for name in (
                    "submitted",
                    "completed",
                    "rejected",
                    "cancelled",
                    "deadline_cancelled",
                    "memory_cancelled",
                    "failed",
                )
            }


class ServingRuntime:
    """Resource governance between one session and its scheduler."""

    def __init__(self, session: "Session"):
        self._session = session
        self._config = session.config
        self._injector = session.ctx.fault_injector
        self.admission = AdmissionController(self._config, self._injector)
        self.memory = MemoryGovernor(self._config)
        self.metrics = ServingMetrics()
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}  # guarded-by: _lock
        self._active: dict[str, QueryContext] = {}  # guarded-by: _lock
        # Make the runtime reachable from the engine side: the scheduler
        # consults breakers, GuardedIndexExec reads ctx.serving.
        session.ctx.serving = self
        session.ctx.scheduler.serving = self

    # ------------------------------------------------------------------
    # Breakers
    # ------------------------------------------------------------------

    def breaker(self, site: str) -> CircuitBreaker:
        """The breaker guarding ``site`` (created on first use)."""
        with self._lock:
            found = self._breakers.get(site)
            if found is None:
                found = self._breakers[site] = CircuitBreaker(
                    site,
                    self._config.serving_breaker_failures,
                    self._config.serving_breaker_reset_s,
                    self._injector,
                )
            return found

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------

    def execute(
        self,
        text: str,
        *,
        tenant: str = "default",
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> ServingResult:
        """Run one SQL query under full resource governance."""
        if deadline_s is None:
            deadline_s = self._config.serving_default_deadline_s
        query = QueryContext.create(
            tenant=tenant, priority=priority, deadline_s=deadline_s
        )
        query.governor = self.memory
        self.metrics.bump("submitted")
        start = time.monotonic()
        try:
            self.admission.admit(query)
        except QueryRejectedError:
            self.metrics.bump("rejected")
            raise
        except QueryCancelledError as exc:
            self._note_cancelled(exc)
            raise
        try:
            self.memory.register(query)
            with self._lock:
                self._active[query.query_id] = query
                others = len(self._active) > 1
            if others:
                # Another query is executing in this interpreter. Sleeping
                # one timer tick hands it the GIL, so queries switch where
                # one starts, not at the 5 ms interpreter tick that parks a
                # short read mid-query and makes its latency jump in steps.
                time.sleep(0)
            if self._injector.should_fire("serving.cancel"):
                query.cancel("injected cancellation")
            token = activate(query)
            try:
                df = self._session.sql(text)
                # Planned as DataFrame actions plan (through the plan
                # cache), so last_execution_plan() shows runtime markers.
                physical = df._physical()
                query.check()
                rows = physical.execute().collect()
            finally:
                deactivate(token)
        except QueryCancelledError as exc:
            self._note_cancelled(exc)
            raise
        except QueryRejectedError:
            self.metrics.bump("rejected")
            raise
        except BaseException:
            self.metrics.bump("failed")
            raise
        finally:
            with self._lock:
                self._active.pop(query.query_id, None)
            self.memory.unregister(query)
            self.admission.release(query)
        self.metrics.bump("completed")
        return ServingResult(
            query_id=query.query_id,
            tenant=tenant,
            rows=rows,
            elapsed_s=time.monotonic() - start,
        )

    def _note_cancelled(self, exc: QueryCancelledError) -> None:
        self.metrics.bump("cancelled")
        if exc.reason == "deadline":
            self.metrics.bump("deadline_cancelled")
        elif exc.reason.startswith("memory"):
            self.metrics.bump("memory_cancelled")

    def cancel_all(self, reason: str = "shutdown") -> int:
        """Cancel every in-flight query (session stop / drain)."""
        with self._lock:
            active = list(self._active.values())
        for query in active:
            query.cancel(reason)
        return len(active)

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            breakers = {
                site: breaker.snapshot() for site, breaker in self._breakers.items()
            }
        from repro.index.registry import bitmap_registry

        return {
            "serving": self.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "memory": self.memory.snapshot(),
            "breakers": breakers,
            # Shared bitmap arrangements (builds/shares/hits) so the
            # amortization across concurrent sessions is observable.
            "index_sharing": bitmap_registry().snapshot(),
        }
