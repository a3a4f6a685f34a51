"""Executor backends: where a scheduled task attempt runs.

The DAG scheduler is backend-agnostic: task attempts go through
:meth:`ExecutorBackend.run_task`. :class:`LocalBackend` calls the task
closure on the scheduler's own thread, one split after another: under
the GIL other threads would add only hand-offs. A backend keeps no
per-job state: jobs run concurrently, each attempt carries its job's
dispatch count as ``attempt``, and the active query
(:func:`~repro.engine.query.current_query`) says whose task it is.

Other backends are plug-ins the composition root injects. The session
builds ``Config(executors=N)``'s process backend and its spill-file
shuffle manager with :func:`repro.cluster.process_backend`; the engine
never imports them.
"""

from __future__ import annotations

from typing import Any, Callable


class ExecutorBackend:
    """Where task attempts run; the scheduler calls only this surface."""

    #: False: ``run_task`` runs the attempt and returns its result, and
    #: the scheduler runs a stage in split order on the job's thread.
    #: True: ``run_task`` only dispatches, on the job's thread, and
    #: returns a :class:`~concurrent.futures.Future` of the result; the
    #: scheduler dispatches a stage's splits at once and waits on them.
    concurrent = False

    def run_task(
        self,
        task: Callable[[int], Any],
        split: int,
        attempt: int = 0,
        prefer_healthy: bool = False,
    ) -> Any:
        """Run ``task(split)``; ``attempt`` counts the job's earlier
        dispatches of ``split``."""
        raise NotImplementedError

    def suspect_slots(self) -> frozenset[int]:
        """Executor slots a liveness layer currently distrusts."""
        return frozenset()

    def stats(self) -> dict[str, int]:
        return {}

    def stop(self) -> None:
        pass


class LocalBackend(ExecutorBackend):
    """In-process execution on the calling thread."""

    def run_task(
        self,
        task: Callable[[int], Any],
        split: int,
        attempt: int = 0,
        prefer_healthy: bool = False,
    ) -> Any:
        return task(split)
