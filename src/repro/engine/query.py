"""Per-query context: deadline, priority, cooperative cancellation.

The engine owns cancellation; the layers above only mint and arm it. A
:class:`QueryContext` is created for each query the serving runtime
admits and *threaded through execution* via a
:class:`~contextvars.ContextVar`. No engine call receives it as an
argument — operators, shuffle fetch loops, and codegen batch loops call
:func:`check_cancelled` at their natural yield points, which is a no-op
(one ContextVar read returning ``None``) when no query is active.

Cancellation is **cooperative**: :meth:`CancellationToken.cancel` only
records a reason; the query dies at its next poll, raising
:class:`~repro.errors.QueryCancelledError` from the polling frame so
every layer unwinds and releases its admission slot. The first cancel
wins — later cancels (deadline racing a memory kill) keep the original
reason.

Tasks see the context directly: in-process they run on the thread that
submitted the job, and the process backend dispatches them from that
same thread, shipping the query's identity and deadline to the worker
in each task's envelope.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import TYPE_CHECKING, Iterator

from repro.errors import QueryCancelledError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.memory import MemoryGovernor

_query_ids = itertools.count(1)


class CancellationToken:
    """One-shot, thread-safe cancellation flag with a reason."""

    __slots__ = ("_lock", "_reason", "_listeners")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reason: str | None = None  # guarded-by: _lock
        self._listeners: list = []  # guarded-by: _lock

    def cancel(self, reason: str) -> bool:
        """Arm the token; returns True iff this call was the first."""
        with self._lock:
            if self._reason is None:
                self._reason = reason
                listeners = list(self._listeners)
            else:
                return False
        # Outside the lock: listeners (e.g. the cluster backend's
        # shared-memory flag writer) may do arbitrary work.
        for listener in listeners:
            listener(reason)
        return True

    def add_listener(self, fn) -> None:
        """Call ``fn(reason)`` on first cancel — immediately if the
        token is already armed. The cluster backend uses this to mirror
        cancellation into a cross-process shared flag."""
        with self._lock:
            reason = self._reason
            if reason is None:
                self._listeners.append(fn)
        if reason is not None:
            fn(reason)

    def remove_listener(self, fn) -> None:
        with self._lock:
            try:
                self._listeners.remove(fn)
            except ValueError:
                pass

    @property
    def reason(self) -> str | None:
        with self._lock:
            return self._reason

    @property
    def cancelled(self) -> bool:
        return self.reason is not None


class QueryContext:
    """Identity and resource envelope of one served query.

    ``deadline`` is an absolute :func:`time.monotonic` instant (or
    ``None`` for unbounded); ``priority`` orders the admission queue
    (higher first). ``governor`` is set by the serving runtime so
    allocation sites can charge bytes without knowing the runtime.
    """

    __slots__ = (
        "query_id",
        "tenant",
        "priority",
        "deadline",
        "token",
        "governor",
        "_clock",
    )

    def __init__(
        self,
        query_id: str,
        tenant: str,
        priority: int,
        deadline: float | None,
        clock=time.monotonic,
    ):
        self.query_id = query_id
        self.tenant = tenant
        self.priority = priority
        self.deadline = deadline
        self.token = CancellationToken()
        self.governor: "MemoryGovernor | None" = None
        self._clock = clock

    @classmethod
    def create(
        cls,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: float | None = None,
        clock=time.monotonic,
    ) -> "QueryContext":
        deadline = None if deadline_s is None else clock() + deadline_s
        return cls(f"q{next(_query_ids)}", tenant, priority, deadline, clock)

    def remaining(self) -> float | None:
        """Seconds until the deadline (may be negative); None if unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - self._clock()

    def expired(self) -> bool:
        return self.deadline is not None and self._clock() > self.deadline

    def cancel(self, reason: str) -> bool:
        return self.token.cancel(reason)

    def check(self) -> None:
        """The cooperative poll: raise if cancelled or past deadline."""
        reason = self.token.reason
        if reason is None and self.expired():
            self.token.cancel("deadline")
            reason = self.token.reason
        if reason is not None:
            raise QueryCancelledError(self.query_id, reason)

    def __repr__(self) -> str:
        return (
            f"QueryContext({self.query_id}, tenant={self.tenant!r}, "
            f"priority={self.priority})"
        )


#: The query active on the current thread of control (None = static
#: engine, every poll site short-circuits).
_CURRENT: ContextVar[QueryContext | None] = ContextVar(
    "repro_query", default=None
)


def current_query() -> QueryContext | None:
    return _CURRENT.get()


def activate(query: QueryContext) -> Token:
    """Bind ``query`` to this thread; pair with :func:`deactivate`."""
    return _CURRENT.set(query)


def deactivate(token: Token) -> None:
    _CURRENT.reset(token)


@contextmanager
def active(query: QueryContext) -> Iterator[QueryContext]:
    token = _CURRENT.set(query)
    try:
        yield query
    finally:
        _CURRENT.reset(token)


def check_cancelled() -> None:
    """Poll the active query, if any (the engine-side entry point)."""
    query = _CURRENT.get()
    if query is not None:
        query.check()
