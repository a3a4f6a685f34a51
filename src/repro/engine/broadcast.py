"""Broadcast variables.

In a single-process engine a broadcast is just a shared read-only
reference, but we keep the Spark API shape — ``context.broadcast(x)``
returning a handle with ``.value`` — because the indexed join's
broadcast fallback (paper §2, "Indexed Join") is expressed through it,
and because the process backend ships each handle to its workers once.
"""

from __future__ import annotations

import itertools
from typing import Generic, TypeVar

T = TypeVar("T")


class Broadcast(Generic[T]):
    """Read-only value shared by all tasks of a job."""

    _ids = itertools.count()

    def __init__(self, value: T):
        self.broadcast_id = next(Broadcast._ids)
        self.value = value

    def __repr__(self) -> str:
        return f"Broadcast(id={self.broadcast_id})"
