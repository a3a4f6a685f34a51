"""Memory governor: per-query and global allocation budgets.

Allocation sites (shuffle map-output writes, broadcast values, cached
result materialization) charge their estimated bytes against the query
active on the thread. Budgets are enforced with a **kill-largest-query**
policy: breaching the per-query budget cancels the charging query
itself; breaching the *global* budget cancels whichever registered
query holds the most bytes — by construction the fastest way to bring
the total back under budget, and the query whose loss frees capacity
for the most peers.

Kills are cooperative: the victim's token is cancelled (reason
``"memory"``) and it unwinds at its next poll, releasing its charges
via :meth:`unregister`. When the victim *is* the charging query, the
charge call itself raises :class:`~repro.errors.QueryCancelledError`
immediately.

Charging is best-effort accounting, not an allocator: estimates come
from :func:`repro.engine.cache.estimate_size`-style sampling, and a
query that never allocates past the budget is never touched.
"""

from __future__ import annotations

import threading

from repro.config import Config
from repro.engine.query import QueryContext


class MemoryGovernor:
    """Tracks charged bytes per registered query and globally."""

    def __init__(self, config: Config):
        self._config = config
        self._lock = threading.Lock()
        self._queries: dict[str, QueryContext] = {}  # guarded-by: _lock
        self._usage: dict[str, int] = {}  # guarded-by: _lock
        self._total = 0  # guarded-by: _lock
        # -- counters surfaced by snapshot() --
        self.charged_bytes = 0  # guarded-by: _lock
        self.peak_total = 0  # guarded-by: _lock
        self.per_query_breaches = 0  # guarded-by: _lock
        self.global_breaches = 0  # guarded-by: _lock
        self.kills = 0  # guarded-by: _lock

    # ------------------------------------------------------------------

    def register(self, query: QueryContext) -> None:
        """Start accounting for ``query`` (idempotent)."""
        with self._lock:
            self._queries.setdefault(query.query_id, query)
            self._usage.setdefault(query.query_id, 0)

    def unregister(self, query: QueryContext) -> None:
        """Stop accounting and release every byte ``query`` charged."""
        with self._lock:
            self._queries.pop(query.query_id, None)
            released = self._usage.pop(query.query_id, 0)
            self._total -= released

    def charge(self, query: QueryContext, nbytes: int) -> None:
        """Account ``nbytes`` to ``query``; enforce both budgets.

        Raises :class:`~repro.errors.QueryCancelledError` when the
        enforcement decision kills the charging query itself.
        """
        if nbytes <= 0:
            return
        victim: QueryContext | None = None
        reason = ""
        with self._lock:
            if query.query_id not in self._usage:
                # Unregistered (e.g. charged during teardown): ignore
                # rather than resurrect accounting for a finished query.
                return
            self._usage[query.query_id] += nbytes
            self._total += nbytes
            self.charged_bytes += nbytes
            self.peak_total = max(self.peak_total, self._total)
            used = self._usage[query.query_id]
            if used > self._config.serving_query_memory_bytes:
                self.per_query_breaches += 1
                victim = query
                reason = (
                    f"memory: query used {used} bytes "
                    f"(budget {self._config.serving_query_memory_bytes})"
                )
            elif self._total > self._config.serving_memory_budget_bytes:
                self.global_breaches += 1
                largest_id = max(self._usage, key=lambda q: self._usage[q])
                victim = self._queries.get(largest_id, query)
                reason = (
                    f"memory: global usage {self._total} bytes "
                    f"(budget {self._config.serving_memory_budget_bytes}); "
                    f"killing largest query {largest_id}"
                )
            if victim is not None:
                self.kills += 1
        if victim is not None:
            # Cancel outside the lock: token.cancel takes its own lock
            # and the victim may be mid-charge on another thread.
            victim.cancel(reason)
            if victim is query:
                query.check()

    def usage(self, query: QueryContext) -> int:
        with self._lock:
            return self._usage.get(query.query_id, 0)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "active_queries": len(self._queries),
                "total_bytes": self._total,
                "charged_bytes": self.charged_bytes,
                "peak_total": self.peak_total,
                "per_query_breaches": self.per_query_breaches,
                "global_breaches": self.global_breaches,
                "kills": self.kills,
            }
