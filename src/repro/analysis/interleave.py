"""Deterministic interleaving driver over the instrumented atomics.

:mod:`repro.ctrie.atomic` exposes a yield hook that fires on entry to
every atomic operation of the concurrent trie: the root cell's ``get``
/ ``set`` / ``compare_and_set`` / ``get_and_set``, the node-slot CAS
functions, and each ``INode.main`` read the trie performs.
:class:`DeterministicInterleaver` uses it to turn a handful of threads
into a seeded, scheduler-controlled interleaving:

* every registered worker *parks* at each atomic operation;
* a driver loop picks the next worker to release using a seeded RNG,
  so a given seed replays the same interleaving (modulo operations
  that block on a *native* lock — see below);
* unregistered threads (pytest's main thread, executor pools) pass
  straight through the hook.

Native locks are the one escape hatch: a released worker that blocks
on e.g. a partition's ``_append_lock`` held by a *parked* worker can
not park again. The driver handles this with a bounded wait — if the
released worker neither parks nor finishes within ``timeout_s``, the
driver simply picks another parked worker, which eventually releases
the native lock and unwedges the first. This keeps the driver
deadlock-free without instrumenting every lock in the process.

This is a race *shaker*, not a model checker: it explores one seeded
schedule per run. Sweeping a few seeds in a test gives cheap, replayable
coverage of writer/reader interleavings that wall-clock scheduling
almost never produces.
"""

from __future__ import annotations

import random
import threading
from typing import Callable

from repro.ctrie import atomic


class _Worker:
    __slots__ = ("index", "thread", "go", "parked", "finished", "error")

    def __init__(self, index: int):
        self.index = index
        self.thread: threading.Thread | None = None
        self.go = threading.Event()
        self.parked = False
        self.finished = False
        self.error: BaseException | None = None


class DeterministicInterleaver:
    """Run thunks concurrently under a seeded atomic-op schedule.

    ``steps`` counts scheduling decisions taken; a test asserting
    ``steps > N`` proves the workers actually contended on the
    instrumented atomics rather than running back-to-back.
    """

    def __init__(
        self,
        seed: int = 0,
        timeout_s: float = 0.05,
        max_steps: int = 100_000,
        stall_limit: int = 200,
    ):
        self.rng = random.Random(seed)
        self.timeout_s = timeout_s
        self.max_steps = max_steps
        self.stall_limit = stall_limit
        self.steps = 0
        self._cond = threading.Condition()
        self._workers: dict[int, _Worker] = {}  # thread ident -> worker

    # -- hook ------------------------------------------------------------

    def _hook(self, site: str) -> None:
        worker = self._workers.get(threading.get_ident())
        if worker is None:
            return  # foreign thread: pass through
        self._park(worker)

    def _park(self, worker: _Worker) -> None:
        with self._cond:
            worker.parked = True
            self._cond.notify_all()
        worker.go.wait()
        worker.go.clear()

    # -- driver ----------------------------------------------------------

    def run(self, *thunks: Callable[[], None]) -> None:
        """Execute the thunks to completion under the seeded schedule.

        Re-raises the first worker exception (by worker index) after
        all workers have stopped.
        """
        workers = [_Worker(i) for i in range(len(thunks))]
        barrier = threading.Barrier(len(thunks) + 1)

        def body(worker: _Worker, thunk: Callable[[], None]) -> None:
            self._workers[threading.get_ident()] = worker
            barrier.wait()
            self._park(worker)  # initial park: driver controls the start
            try:
                thunk()
            except BaseException as exc:  # lint: allow[ET002] -- captured into worker.error; run() re-raises it
                worker.error = exc
            finally:
                with self._cond:
                    worker.finished = True
                    worker.parked = False
                    self._cond.notify_all()

        atomic.install_yield_hook(self._hook)
        try:
            for worker, thunk in zip(workers, thunks):
                worker.thread = threading.Thread(
                    target=body, args=(worker, thunk), daemon=True
                )
                worker.thread.start()
            barrier.wait()
            self._drive(workers)
        finally:
            atomic.clear_yield_hook()
            # Release anything still parked so threads can drain.
            for worker in workers:
                worker.go.set()
            for worker in workers:
                if worker.thread is not None:
                    worker.thread.join(timeout=5.0)

        for worker in workers:
            if worker.error is not None:
                raise worker.error

    def _drive(self, workers: list[_Worker]) -> None:
        stalls = 0
        while not all(w.finished for w in workers):
            with self._cond:
                self._cond.wait_for(
                    lambda: any(w.parked for w in workers)
                    or all(w.finished for w in workers),
                    timeout=self.timeout_s,
                )
                parked = [w for w in workers if w.parked]
                if not parked:
                    if all(w.finished for w in workers):
                        return
                    stalls += 1
                    if stalls > self.stall_limit:
                        raise RuntimeError(
                            "interleaver stalled: no worker parked or "
                            f"finished in {self.stall_limit} waits"
                        )
                    continue
                choice = self.rng.choice(parked)
                choice.parked = False
            choice.go.set()
            self.steps += 1
            if self.steps > self.max_steps:
                raise RuntimeError("interleaver exceeded max_steps")
            # Wait (bounded) for the released worker to park again or
            # finish; on timeout it is blocked on a native lock and we
            # schedule someone else to unwedge it.
            with self._cond:
                self._cond.wait_for(
                    lambda: choice.parked or choice.finished or
                    any(w.parked for w in workers if w is not choice),
                    timeout=self.timeout_s,
                )
            stalls = 0
