"""DAG scheduler: stages split at shuffle boundaries.

Given an action on a target RDD, the scheduler

1. walks the lineage graph and collects every *incomplete* shuffle
   dependency reachable from the target;
2. topologically orders those shuffles (a shuffle can only run once the
   shuffles *it* depends on have produced their map outputs);
3. runs one *map stage* per shuffle — a task per parent partition that
   writes bucketed map output into the shuffle manager;
4. runs the *result stage* — a task per requested target partition that
   applies the action's function to the partition iterator.

Stages run in sequence, exactly as in Spark. Jobs run concurrently: each
job's state — its lineage, the shuffles it registered, its dispatch
count per split — lives on its :class:`JobMetrics`, owned by the thread
that submitted it, so the scheduler holds no lock across a stage.

Where a stage's tasks run follows the backend. In-process they run in
split order on the calling thread: under the GIL a thread pool buys no
parallelism for Python tasks, only a hand-off per task. A concurrent
backend (the process backend) takes all of a stage's tasks from the
job's own thread, each ``run_task`` returning a future, and the stage
loop waits on those futures, polling the stage deadline and the query
every tick.

Shuffle lifetime follows Spark's ContextCleaner rule: a shuffle's map
outputs live exactly as long as its :class:`ShuffleDependency` object.
Once no RDD references the dependency, the next job releases them. Two
jobs may run one map stage at once: the shuffle manager keeps the first
output per map index, and the commit that completes the shuffle fixes
its coalescing plan before any reader can fetch.

Fault tolerance (mirroring Spark's recovery model):

* **bounded retries** — a task failing with a *transient* cause (an
  injected fault, a lost shuffle fetch, an OS-level I/O error) is
  resubmitted with exponential backoff up to
  ``Config.task_max_retries`` times, after which the stage raises
  :class:`~repro.errors.RetryExhaustedError`. Deterministic user-code
  errors fail fast;
* **lineage recomputation** — a
  :class:`~repro.errors.FetchFailedError` does not burn retries
  blindly: the scheduler looks up the shuffle dependency in the job's
  lineage, re-runs exactly the missing map tasks, and only then
  resubmits the fetching task;
* **stage deadline** — ``Config.stage_timeout_s`` bounds each stage's
  wall-clock time; on expiry :class:`~repro.errors.StageTimeoutError`
  is raised and no further task of the stage starts. In-process the
  deadline is checked before each task; a running task is never
  interrupted (a GIL-bound task cannot be);
* **speculation** — a task in flight on a worker slot the heartbeat
  monitor marks SUSPECT gets a backup attempt routed to a healthy slot;
  the first to finish wins;
* **failure cancellation** — once a stage is doomed, its remaining
  tasks never start.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.config import Config
from repro.engine.backend import ExecutorBackend, LocalBackend
from repro.engine.query import current_query
from repro.engine.rdd import RDD, ShuffleDependencyEdge
from repro.engine.shuffle import ShuffleDependency, ShuffleManager
from repro.errors import (
    CircuitOpenError,
    ClusterTimeoutError,
    DurabilityError,
    FetchFailedError,
    InjectedFault,
    QueryCancelledError,
    RetryExhaustedError,
    StageTimeoutError,
    TaskError,
    WorkerLostError,
)
from repro.faults import NULL_INJECTOR, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.runtime import ServingRuntime


def _keep(results: list[Any]) -> None:
    """Default ``discard`` for stages whose results need no release."""


#: Upper bound on one retry backoff sleep.
_MAX_BACKOFF_S = 1.0
#: Driver poll tick while waiting on dispatched tasks (also the
#: resolution of concurrent-stage deadline checks and speculation).
_DRIVER_TICK_S = 0.02


def _find_transient(exc: BaseException | None) -> BaseException | None:
    """The transient cause inside a (possibly nested) task failure.

    Walks ``TaskError.cause`` chains looking for an injected fault, a
    shuffle fetch failure, a WAL/checkpoint I/O failure, a lost worker
    process, or an OS-level error — the failure classes a retry can
    plausibly heal. A :class:`~repro.errors.RecoveryError` is
    deliberately *not* here: a failed restore means durable state is
    corrupt, and replaying the task would only mask that.
    """
    depth = 0
    while exc is not None and depth < 16:
        if isinstance(
            exc,
            (
                InjectedFault,
                FetchFailedError,
                DurabilityError,
                WorkerLostError,
                ClusterTimeoutError,
                ConnectionError,
                TimeoutError,
                OSError,
            ),
        ):
            return exc
        exc = getattr(exc, "cause", None) or exc.__cause__
        depth += 1
    return None


def _find_fetch_failure(exc: BaseException | None) -> FetchFailedError | None:
    depth = 0
    while exc is not None and depth < 16:
        if isinstance(exc, FetchFailedError):
            return exc
        exc = getattr(exc, "cause", None) or exc.__cause__
        depth += 1
    return None


def _find_cancellation(exc: BaseException | None) -> QueryCancelledError | None:
    """A cooperative cancellation buried in a task-failure chain.

    A :class:`QueryCancelledError` raised inside a task gets wrapped in
    :class:`TaskError` like any other failure; it must be unwrapped and
    re-raised — never retried — so the whole job unwinds and releases
    its slots (the entire point of cancellation).
    """
    depth = 0
    while exc is not None and depth < 16:
        if isinstance(exc, QueryCancelledError):
            return exc
        exc = getattr(exc, "cause", None) or exc.__cause__
        depth += 1
    return None


class _StageClock:
    """Per-stage deadline, and the **single** place ``stage_timeouts``
    is bumped.

    The old code bumped the counter at both the inline and the
    concurrent check site, so one expiry observed on both paths (a
    concurrent stage unwinding through a nested inline recomputation)
    double-counted. The once-flag makes the metric mean what it says: one expired stage,
    one count — however many frames re-observe the expiry.
    """

    __slots__ = ("stage_id", "deadline", "timeout_s", "_metrics", "_counted")

    def __init__(
        self,
        stage_id: int,
        timeout_s: float | None,
        metrics: "SchedulerMetrics",
    ):
        self.stage_id = stage_id
        self.timeout_s = timeout_s
        self.deadline = None if timeout_s is None else time.monotonic() + timeout_s
        self._metrics = metrics
        self._counted = False

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            if not self._counted:
                self._counted = True
                self._metrics.bump("stage_timeouts")
            raise StageTimeoutError(self.stage_id, self.timeout_s or 0.0)


# Fetch failures draw on their own retry budget, task_max_retries times
# this factor. A coalesced reduce task fetches many map buckets, so one
# attempt makes many independent fetch draws; charging those against the
# crash budget would exhaust it in proportion to the coalesce width even
# though each loss is repaired by lineage recomputation, not by the
# retry itself. task_max_retries=0 still means fail-fast for both kinds.
_FETCH_RETRY_FACTOR = 4


@dataclass
class _TaskFailures:
    """Per-task retry accounting: crashes and fetch failures draw on
    separate budgets (see ``_FETCH_RETRY_FACTOR``)."""

    crashes: int = 0
    fetches: int = 0
    #: Cluster RPC faults (lost or fenced workers) among the crashes —
    #: the subset the ``cluster.rpc`` breaker accounts.
    rpc_faults: int = 0

    @property
    def attempts(self) -> int:
        return self.crashes + self.fetches


@dataclass
class JobMetrics:
    """One job's state: its counters, lineage and dispatches. Only the
    thread running the job touches it, so it needs no lock."""

    job_id: int
    stages: int = 0
    tasks: int = 0
    #: Every shuffle the job reaches, by id: a fetch failure recomputes
    #: the lost map outputs from here.
    lineage: dict[int, ShuffleDependency] = field(default_factory=dict)
    #: Shuffles this job registered: the only ones its cancel drops.
    registered: list[int] = field(default_factory=list)
    #: Dispatches so far per split, across the job's stages.
    dispatches: dict[int, int] = field(default_factory=dict)

    def dispatch(self, split: int) -> int:
        """Count one dispatch of ``split``; returns its attempt number."""
        attempt = self.dispatches.get(split, 0)
        self.dispatches[split] = attempt + 1
        return attempt


@dataclass
class SchedulerMetrics:
    """Cumulative scheduler counters."""

    jobs: int = 0  # guarded-by: _lock
    stages: int = 0  # guarded-by: _lock
    tasks: int = 0  # guarded-by: _lock
    task_failures: int = 0  # guarded-by: _lock
    task_retries: int = 0  # guarded-by: _lock
    fetch_failures: int = 0  # guarded-by: _lock
    recomputed_map_stages: int = 0  # guarded-by: _lock
    speculative_tasks: int = 0  # guarded-by: _lock
    speculative_wins: int = 0  # guarded-by: _lock
    stage_timeouts: int = 0  # guarded-by: _lock
    workers_lost: int = 0  # guarded-by: _lock
    cluster_timeouts: int = 0  # guarded-by: _lock
    plan_cache_hits: int = 0  # guarded-by: _lock
    plan_cache_misses: int = 0  # guarded-by: _lock
    plan_cache_full_hits: int = 0  # guarded-by: _lock
    index_fallbacks: int = 0  # guarded-by: _lock
    coalesced_shuffles: int = 0  # guarded-by: _lock
    coalesced_partitions: int = 0  # guarded-by: _lock
    runtime_broadcast_joins: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_job(self, job: JobMetrics) -> None:
        with self._lock:
            self.jobs += 1
            self.stages += job.stages
            self.tasks += job.tasks

    def record_index_fallback(self, label: str | None = None) -> None:
        """An indexed operator degraded to its vanilla plan."""
        with self._lock:
            self.index_fallbacks += 1

    def bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                name: getattr(self, name)
                for name in (
                    "jobs",
                    "stages",
                    "tasks",
                    "task_failures",
                    "task_retries",
                    "fetch_failures",
                    "recomputed_map_stages",
                    "speculative_tasks",
                    "speculative_wins",
                    "stage_timeouts",
                    "workers_lost",
                    "cluster_timeouts",
                    "plan_cache_hits",
                    "plan_cache_misses",
                    "plan_cache_full_hits",
                    "index_fallbacks",
                    "coalesced_shuffles",
                    "coalesced_partitions",
                    "runtime_broadcast_joins",
                )
            }


class DAGScheduler:
    """Runs jobs for an :class:`~repro.engine.context.EngineContext`."""

    _job_ids = itertools.count()

    def __init__(
        self,
        shuffle_manager: ShuffleManager,
        config: Config | None = None,
        injector: FaultInjector | None = None,
        backend: ExecutorBackend | None = None,
    ):
        self._shuffles = shuffle_manager
        self._config = config or Config()
        self._injector = injector or NULL_INJECTOR
        self._backend = backend or LocalBackend()
        # Ids of registered shuffles whose ShuffleDependency has been
        # garbage-collected. Filled by weakref finalizers, which may fire
        # inside any lock-holding block during a GC pass, so they only
        # append (deque.append is atomic); every job drains it.
        self._dead_shuffles: collections.deque[int] = collections.deque()
        self.metrics = SchedulerMetrics()
        # Set by the serving runtime when resource governance is on;
        # None keeps every serving hook a single attribute check.
        self.serving: "ServingRuntime | None" = None

    # ------------------------------------------------------------------

    def run_job(
        self,
        rdd: RDD,
        func: Callable[[Iterator[Any]], Any],
        partitions: Sequence[int] | None = None,
    ) -> list[Any]:
        """Run ``func`` over the given partitions of ``rdd``; returns the
        per-partition results in partition order."""
        job = JobMetrics(job_id=next(DAGScheduler._job_ids))
        query = current_query()
        self._release_dead_shuffles()
        missing, job.lineage, readers, index_sensitive = self._collect_shuffles(rdd)
        # Coalescing renumbers reduce partitions, so it is only
        # attempted when (a) the caller asked for *all* partitions
        # (explicit indices, e.g. take(), were chosen against the
        # planned count), and (b) nothing in the job graph depends on
        # partition identity.
        coalesce = partitions is None and not index_sensitive
        try:
            for dep in missing:
                if query is not None:
                    query.check()
                self._run_map_stage(
                    dep, job, readers=readers.get(dep.shuffle_id, ()) if coalesce else ()
                )
            if partitions is None:
                # Resolved only now: coalescing may have shrunk the
                # target RDD's partition count.
                partitions = range(rdd.num_partitions)
            results = self._run_result_stage(rdd, func, partitions, job)
        except QueryCancelledError:
            # A cancelled job must not leave half-written shuffle
            # state behind. It drops the incomplete shuffles it
            # registered; another job's stay with that job. Complete
            # shuffles are durable job results and stay reusable.
            for shuffle_id in job.registered:
                self._shuffles.remove_shuffle(shuffle_id, only_incomplete=True)
            raise
        self.metrics.record_job(job)
        return results

    def _release_dead_shuffles(self) -> None:
        """Remove the map outputs of every shuffle whose dependency died
        since the last job: no RDD can read them any more. A cached or
        still-referenced RDD keeps its dependency, hence its shuffle."""
        for shuffle_id in iter(self._pop_dead_shuffle, None):
            self._shuffles.remove_shuffle(shuffle_id)

    def _pop_dead_shuffle(self) -> int | None:
        """The next dead shuffle id, or None once a job drained them all."""
        try:
            return self._dead_shuffles.popleft()
        except IndexError:
            return None

    def _coalesce(self, readers: Sequence[Any], sizes: list[tuple[int, int]]) -> None:
        """Merge adjacent small reduce buckets of a shuffle that has just
        completed. The shuffle manager calls this under its lock, from
        the commit that completes the shuffle, so every reader sees one
        numbering."""
        if len(sizes) <= 1:
            return
        target = self._config.target_reduce_bytes
        groups: list[list[int]] = []
        current: list[int] = []
        current_bytes = 0
        for index, (_rows, est_bytes) in enumerate(sizes):
            if current and current_bytes + est_bytes > target:
                groups.append(current)
                current, current_bytes = [], 0
            current.append(index)
            current_bytes += est_bytes
        if current:
            groups.append(current)
        if len(groups) >= len(sizes):
            return  # nothing to merge
        for reader in readers:
            if reader.allow_coalesce and reader._reduce_groups is None:
                reader.set_coalesce_groups(groups)
                self.metrics.bump("coalesced_shuffles")
                self.metrics.bump("coalesced_partitions", len(sizes) - len(groups))

    # ------------------------------------------------------------------

    def _collect_shuffles(
        self, rdd: RDD
    ) -> tuple[
        list[ShuffleDependency],
        dict[int, ShuffleDependency],
        dict[int, list[RDD]],
        bool,
    ]:
        """Walk the lineage: returns (incomplete shuffles in execution
        order, every reachable shuffle keyed by id, the reader RDD(s)
        per shuffle id, and whether any reachable RDD is
        index-sensitive).

        The full map is kept even for complete shuffles — their outputs
        can still be lost mid-job and need lineage recomputation. The
        readers and index-sensitivity feed adaptive coalescing.
        """
        ordered: list[ShuffleDependency] = []
        lineage: dict[int, ShuffleDependency] = {}
        readers: dict[int, list[RDD]] = {}
        seen_rdds: set[int] = set()
        index_sensitive = False

        def visit(node: RDD) -> None:
            nonlocal index_sensitive
            if node.rdd_id in seen_rdds:
                return
            seen_rdds.add(node.rdd_id)
            if node._index_sensitive:
                index_sensitive = True
            # A cached RDD whose every partition is stored needs no
            # upstream recomputation: its shuffles can be skipped.
            if node.is_cached and self._fully_cached(node):
                return
            for edge in node.dependencies:
                visit(edge.rdd)
                if isinstance(edge, ShuffleDependencyEdge):
                    dep = edge.shuffle
                    readers.setdefault(dep.shuffle_id, []).append(node)
                    if dep.shuffle_id in lineage:
                        continue
                    lineage[dep.shuffle_id] = dep
                    if not self._shuffles.is_complete(dep.shuffle_id):
                        ordered.append(dep)

        visit(rdd)
        return ordered, lineage, readers, index_sensitive

    def _fully_cached(self, rdd: RDD) -> bool:
        bm = rdd.context.block_manager
        return all(bm.contains((rdd.rdd_id, p)) for p in range(rdd.num_partitions))

    def _run_map_stage(
        self,
        dep: ShuffleDependency,
        job: JobMetrics,
        map_indices: Sequence[int] | None = None,
        readers: Sequence[RDD] = (),
    ) -> None:
        """Run the map tasks of ``dep`` that ``map_indices`` names (by
        default every absent one) and commit their outputs. If that
        commit completes the shuffle, ``readers`` get its coalescing
        plan."""
        parent: RDD = dep.rdd
        num_maps = parent.num_partitions
        if self._shuffles.register_shuffle(dep.shuffle_id, num_maps):
            job.registered.append(dep.shuffle_id)
            finalizer = weakref.finalize(
                dep, self._dead_shuffles.append, dep.shuffle_id
            )
            finalizer.atexit = False
        if map_indices is None:
            # Only the absent outputs: a full first run computes all of
            # them, a recomputation touches just what was lost.
            map_indices = self._shuffles.missing_map_indices(dep.shuffle_id)
        indices = list(map_indices)
        if not indices:
            return
        stage_id = job.stages
        job.stages += 1
        injector = self._injector
        # Each map task returns its output (in-memory buckets, or a
        # spill file's MapStatus); the stage's outputs are committed
        # together, and any the stage does not return are dropped.
        writer = self._shuffles.map_writer(dep)

        def map_task(map_index: int) -> Any:
            try:
                injector.maybe_delay("task.slow", map_index)
                injector.maybe_fail("task", map_index)
                records = parent.iterator(map_index)
                return writer(map_index, records)
            except (TaskError, QueryCancelledError):
                # Cancellation is not a task failure: it propagates
                # untouched so the failure policy re-raises it verbatim.
                raise
            except Exception as exc:  # noqa: BLE001 - wrap any task failure
                raise TaskError(stage_id, map_index, exc) from exc

        job.tasks += len(indices)
        outputs = self._run_stage(
            map_task, indices, job, stage_id, self._shuffles.discard
        )
        self._shuffles.commit_map_outputs(
            dep.shuffle_id,
            outputs,
            num_maps,
            functools.partial(self._coalesce, readers) if readers else None,
        )

    def _run_result_stage(
        self,
        rdd: RDD,
        func: Callable[[Iterator[Any]], Any],
        partitions: Sequence[int],
        job: JobMetrics,
    ) -> list[Any]:
        stage_id = job.stages
        job.stages += 1
        job.tasks += len(partitions)
        injector = self._injector

        def result_task(split: int) -> Any:
            try:
                injector.maybe_delay("task.slow", split)
                injector.maybe_fail("task", split)
                return func(rdd.iterator(split))
            except (TaskError, QueryCancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 - wrap any task failure
                raise TaskError(stage_id, split, exc) from exc

        return self._run_stage(result_task, partitions, job, stage_id)

    # ------------------------------------------------------------------
    # Stage execution with retries / deadline / speculation
    # ------------------------------------------------------------------

    def _run_stage(
        self,
        task: Callable[[int], Any],
        splits: Sequence[int],
        job: JobMetrics,
        stage_id: int,
        discard: Callable[[list[Any]], None] = _keep,
    ) -> list[Any]:
        """Run one task per split; returns their results in split order.

        ``discard`` receives every successful result a concurrent stage
        does not return: a failed stage's, and losing duplicate
        attempts'. In process the results are in-memory and need no
        release.
        """
        splits = list(splits)
        if not splits:
            return []
        clock = _StageClock(stage_id, self._config.stage_timeout_s, self.metrics)
        if not self._backend.concurrent:
            # In-process: the splits run in order on this thread, each
            # attempt through the backend. A failure raises out of the
            # comprehension, so the remaining splits never start.
            run_task = self._backend.run_task

            def attempt(split: int) -> Any:
                return run_task(task, split, job.dispatch(split))

            return [
                self._run_task_inline(attempt, split, job, stage_id, clock)
                for split in splits
            ]
        if len(splits) == 1:
            # A single-split stage stays driver-side: no dispatch, and
            # result closures that cannot cross a process boundary
            # (take()'s collectors, local-variable sinks) keep working.
            return [self._run_task_inline(task, splits[0], job, stage_id, clock)]
        return self._run_stage_concurrent(task, splits, job, stage_id, clock, discard)

    def _run_task_inline(
        self,
        attempt: Callable[[int], Any],
        split: int,
        job: JobMetrics,
        stage_id: int,
        clock: _StageClock,
    ) -> Any:
        failures = _TaskFailures()
        query = current_query()
        while True:
            clock.check()
            if query is not None:
                query.check()
            try:
                value = attempt(split)
                self._note_retry_success(failures)
                return value
            except BaseException as exc:  # lint: allow[ET002] -- _on_task_failure re-raises every non-transient class
                self._on_task_failure(exc, split, job, stage_id, failures)
                delay = self._backoff(failures.attempts)
                if delay:
                    time.sleep(delay)

    def _run_stage_concurrent(
        self,
        task: Callable[[int], Any],
        splits: list[int],
        job: JobMetrics,
        stage_id: int,
        clock: _StageClock,
        discard: Callable[[list[Any]], None],
    ) -> list[Any]:
        results: dict[int, Any] = {}
        failures: dict[int, _TaskFailures] = {s: _TaskFailures() for s in splits}
        speculated: set[int] = set()
        inflight: dict[Future, tuple[int, bool]] = {}
        # Retries waiting out their backoff: a heap of (due time, split).
        pending: list[tuple[float, int]] = []
        query = current_query()
        run_task = self._backend.run_task

        def submit(split: int, speculative: bool = False) -> None:
            # A dispatch draws faults and encodes the task on this
            # thread, so it polls first. Speculative copies route around
            # SUSPECT slots: a backup queued behind the very straggler it
            # races is useless.
            if query is not None:
                query.check()
            fut = run_task(task, split, job.dispatch(split), speculative)
            inflight[fut] = (split, speculative)

        def discard_unreturned(fut: Future) -> None:
            if not fut.cancelled() and fut.exception() is None:
                discard([fut.result()])

        try:
            for split in splits:
                submit(split)
            while len(results) < len(splits):
                clock.check()
                if query is not None:
                    query.check()
                now = time.monotonic()
                while pending and pending[0][0] <= now:
                    submit(heapq.heappop(pending)[1])
                timeout = _DRIVER_TICK_S
                if pending:
                    timeout = min(timeout, pending[0][0] - now)
                if not inflight:
                    time.sleep(timeout)  # only backoffs left to wait out
                    continue
                done, _ = wait(
                    list(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    split, speculative = inflight.pop(fut)
                    if split in results:
                        # The other attempt already won.
                        discard_unreturned(fut)
                        continue
                    try:
                        value = fut.result()
                    except BaseException as exc:  # lint: allow[ET002] -- routed to _on_task_failure, which re-raises non-transients
                        if speculative:
                            # The original attempt still owns the split;
                            # a crashed speculative copy is just noise.
                            continue
                        self._on_task_failure(
                            exc, split, job, stage_id, failures[split]
                        )
                        delay = self._backoff(failures[split].attempts)
                        heapq.heappush(pending, (time.monotonic() + delay, split))
                        continue
                    results[split] = value
                    self._note_retry_success(failures[split])
                    if speculative:
                        self.metrics.bump("speculative_wins")
                self._speculate_suspects(results, inflight, speculated, submit)
        except BaseException:
            # Doomed stage: attempts still queued on a slot are cancelled
            # and never run; retries waiting out a backoff never start.
            for fut in inflight:
                fut.cancel()
            discard(list(results.values()))
            raise
        finally:
            # Attempts still running — a doomed stage's, or the losers
            # of a finished one — drop their result when they end.
            for fut in inflight:
                fut.add_done_callback(discard_unreturned)
        return [results[s] for s in splits]

    def _speculate_suspects(
        self,
        results: dict[int, Any],
        inflight: dict[Future, tuple[int, bool]],
        speculated: set[int],
        submit: Callable[..., None],
    ) -> None:
        """Liveness-driven speculation: a task in flight on a slot the
        heartbeat monitor distrusts gets its backup immediately — the
        monitor's SUSPECT verdict *is* the straggler signal."""
        suspects = self._backend.suspect_slots()
        if not suspects:
            return
        slot_for = getattr(self._backend, "slot_for_split", None)
        if slot_for is None:
            return
        for split, speculative in list(inflight.values()):
            if speculative or split in results or split in speculated:
                continue
            if slot_for(split) in suspects:
                speculated.add(split)
                self.metrics.bump("speculative_tasks")
                submit(split, speculative=True)

    def _note_retry_success(self, failures: _TaskFailures) -> None:
        """A split that previously failed on a cluster RPC fault just
        completed: the respawn healed it, so the breaker resets."""
        if failures.rpc_faults and self.serving is not None:
            self.serving.breaker("cluster.rpc").record_success()

    # ------------------------------------------------------------------
    # Failure policy
    # ------------------------------------------------------------------

    def _on_task_failure(
        self,
        exc: BaseException,
        split: int,
        job: JobMetrics,
        stage_id: int,
        failures: _TaskFailures,
    ) -> None:
        """Central per-task failure policy.

        Updates the failure accounting in place when the task should
        be retried; raises otherwise. Fetch failures trigger lineage
        recomputation of the lost map outputs before the retry, and
        draw on a separate, wider budget than crashes: the recompute
        is what repairs them, so a task that reads many (possibly
        coalesced) shuffle buckets must not burn its crash budget on
        losses it did not cause.
        """
        cancelled = _find_cancellation(exc)
        if cancelled is not None:
            # Not a failure to retry around: surface the cancellation
            # itself so the job unwinds and releases its slots.
            raise cancelled
        self.metrics.bump("task_failures")
        fetch = _find_fetch_failure(exc)
        if fetch is not None:
            self.metrics.bump("fetch_failures")
            breaker = None if self.serving is None else self.serving.breaker(
                "shuffle.fetch"
            )
            if breaker is not None:
                breaker.record_failure()
                if not breaker.allow():
                    # Persistent fetch failure: fast-fail instead of
                    # burning the fetch retry budget on a dead shuffle.
                    raise RetryExhaustedError(
                        f"stage {stage_id}, partition {split}",
                        failures.attempts + 1,
                        CircuitOpenError("shuffle.fetch", breaker.retry_after()),
                    ) from exc
            self._recover_lost_shuffle(fetch, job)
            if breaker is not None:
                # Lineage recomputation is the repair for a lost fetch;
                # reaching here means the recompute succeeded.
                breaker.record_success()
        transient = _find_transient(exc)
        if isinstance(transient, WorkerLostError):
            self.metrics.bump("workers_lost")
        if isinstance(transient, ClusterTimeoutError):
            self.metrics.bump("cluster_timeouts")
        if isinstance(transient, (WorkerLostError, ClusterTimeoutError)):
            failures.rpc_faults += 1
            breaker = None if self.serving is None else self.serving.breaker(
                "cluster.rpc"
            )
            if breaker is not None:
                breaker.record_failure()
                if not breaker.allow():
                    # Workers dying or timing out faster than respawn
                    # can heal: fast-fail instead of feeding more tasks
                    # into a flapping cluster.
                    raise RetryExhaustedError(
                        f"stage {stage_id}, partition {split}",
                        failures.attempts + 1,
                        CircuitOpenError("cluster.rpc", breaker.retry_after()),
                    ) from exc
        if transient is None:
            raise exc
        budget = self._config.task_max_retries
        if fetch is not None:
            failures.fetches += 1
            exhausted = failures.fetches > budget * _FETCH_RETRY_FACTOR
        else:
            failures.crashes += 1
            exhausted = failures.crashes > budget
        if exhausted:
            cause = exc.cause if isinstance(exc, TaskError) else exc
            raise RetryExhaustedError(
                f"stage {stage_id}, partition {split}", failures.attempts, cause
            ) from exc
        self.metrics.bump("task_retries")

    def _recover_lost_shuffle(self, fetch: FetchFailedError, job: JobMetrics) -> None:
        """Lineage recomputation: re-run exactly the missing map tasks
        of the shuffle a fetch failed against."""
        dep = job.lineage.get(fetch.shuffle_id)
        if dep is None:
            # Not in this job's lineage (shouldn't happen): the retry
            # will hit the same wall and exhaust honestly.
            return
        missing = self._shuffles.missing_map_indices(fetch.shuffle_id)
        if not missing:
            return  # another task's failure already recomputed it
        self.metrics.bump("recomputed_map_stages")
        self._run_map_stage(dep, job, map_indices=missing)

    def _backoff(self, failures: int) -> float:
        base = self._config.retry_backoff_s
        if base <= 0 or failures <= 0:
            return 0.0
        return min(base * (2 ** (failures - 1)), _MAX_BACKOFF_S)
