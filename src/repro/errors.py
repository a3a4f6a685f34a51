"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class. The sub-classes mirror the
layers of the system: engine (RDD/scheduler), SQL (analysis/parsing/
planning), and the indexed-dataframe core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EngineError(ReproError):
    """Error in the RDD / scheduler / shuffle layer."""


class TaskError(EngineError):
    """A task failed while executing on an executor thread.

    Wraps the original exception and records which partition failed so
    that the scheduler can report a precise failure location.
    """

    def __init__(self, stage_id: int, partition: int, cause: BaseException):
        self.stage_id = stage_id
        self.partition = partition
        self.cause = cause
        super().__init__(
            f"task failed in stage {stage_id}, partition {partition}: {cause!r}"
        )

    def __reduce__(self):
        # Exceptions with multi-argument __init__ do not survive the
        # default Exception pickling (which replays cls(*args) with the
        # formatted message only); the cluster backend ships task
        # failures back from worker processes, so spell out the real
        # constructor arguments.
        return (type(self), (self.stage_id, self.partition, self.cause))


class InjectedFault(ReproError):
    """A fault raised on purpose by the deterministic fault injector.

    Carries the injection *site* (e.g. ``"task"``, ``"broker.read"``,
    ``"index.probe"``) so recovery code and tests can tell injected
    chaos apart from organic failures. Injected faults are transient by
    definition: retrying the operation may succeed.
    """

    def __init__(self, site: str):
        self.site = site
        super().__init__(f"injected fault at site {site!r}")

    def __reduce__(self):
        return (type(self), (self.site,))


class FetchFailedError(EngineError):
    """A reduce task could not fetch a shuffle map output.

    The Spark-equivalent of ``FetchFailedException``: the scheduler
    reacts not by merely retrying the reduce task but by recomputing
    the lost map outputs from lineage first.
    """

    def __init__(
        self,
        shuffle_id: int,
        map_index: int | None = None,
        message: str | None = None,
    ):
        self.shuffle_id = shuffle_id
        self.map_index = map_index
        if message is None:
            where = "" if map_index is None else f", map output {map_index}"
            message = f"shuffle {shuffle_id}{where}: map output(s) missing"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.shuffle_id, self.map_index, str(self)))


class RetryExhaustedError(EngineError):
    """A transient failure persisted through every allowed retry.

    Raised by the scheduler when a task keeps failing with a transient
    cause past ``Config.task_max_retries``, and by the ingestion loop
    when broker polling stays down past ``IndexedIngest.max_retries``.
    """

    def __init__(self, site: str, attempts: int, cause: BaseException):
        self.site = site
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"{site} failed permanently after {attempts} attempt(s): {cause!r}"
        )

    def __reduce__(self):
        return (type(self), (self.site, self.attempts, self.cause))


class WorkerLostError(EngineError):
    """A cluster worker process died while tasks were in flight.

    The process-backend analogue of Spark's ``ExecutorLostFailure``:
    transient by definition — the backend respawns the worker slot, the
    dead worker's shuffle spill outputs are invalidated, and the
    scheduler retries the in-flight task (lineage recomputation covers
    any map outputs that died with the process).
    """

    def __init__(self, worker_id: int, generation: int, detail: str = ""):
        self.worker_id = worker_id
        self.generation = generation
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"worker {worker_id} (generation {generation}) lost{suffix}"
        )

    def __reduce__(self):
        return (type(self), (self.worker_id, self.generation))


class ClusterTimeoutError(EngineError):
    """A cluster RPC or heartbeat deadline expired on a gray worker.

    The gray-failure analogue of :class:`WorkerLostError`: the worker
    process did not die cleanly — it hung, stalled, or silently dropped
    a reply — so the driver *fenced* it (declared its generation dead
    and killed the process) after ``Config.heartbeat_timeout`` missed
    beats or a ``Config.rpc_deadline`` expiry. **Transient**: the slot
    respawns at a new generation and the scheduler retries the attempt;
    lineage recomputation covers any map outputs fenced with it.
    ``reason`` names the detector (``"heartbeat"`` or
    ``"rpc-deadline"``).
    """

    def __init__(
        self, worker_id: int, generation: int, reason: str, detail: str = ""
    ):
        self.worker_id = worker_id
        self.generation = generation
        self.reason = reason
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"worker {worker_id} (generation {generation}) fenced by "
            f"{reason}{suffix}"
        )

    def __reduce__(self):
        return (type(self), (self.worker_id, self.generation, self.reason))


class StageTimeoutError(EngineError):
    """A stage exceeded its configured deadline (``Config.stage_timeout_s``)."""

    def __init__(self, stage_id: int, timeout_s: float):
        self.stage_id = stage_id
        self.timeout_s = timeout_s
        super().__init__(
            f"stage {stage_id} exceeded its deadline of {timeout_s:.3f}s"
        )

    def __reduce__(self):
        return (type(self), (self.stage_id, self.timeout_s))


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid.

    Raised by :class:`~repro.config.Config` at construction so a bad
    knob (negative deadline, zero budget) fails loudly before any query
    runs, never as mysterious runtime behavior. Also a
    :class:`ValueError` so callers validating config generically keep
    working.
    """


class ServingError(ReproError):
    """Error in the serving / resource-governance layer."""


class QueryRejectedError(ServingError):
    """Admission control shed this query before it ran.

    **Retryable**: the engine was overloaded (queue full, concurrency or
    memory budget exhausted) at submission time. ``retry_after_s`` is
    the controller's backoff hint; nothing about the query itself is
    wrong.
    """

    def __init__(self, reason: str, retry_after_s: float, tenant: str | None = None):
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.tenant = tenant
        where = f" (tenant {tenant!r})" if tenant else ""
        super().__init__(
            f"query rejected{where}: {reason}; retry after {retry_after_s:.3f}s"
        )


class QueryCancelledError(Exception):
    """A query's cooperative cancellation token fired mid-execution.

    ``reason`` names why: ``"deadline"`` (the per-query deadline
    expired — retryable with a larger deadline), ``"memory"`` (the
    memory governor killed the largest query on budget breach —
    retryable once load drains), ``"user"``/``"shutdown"``, or an
    injected-chaos reason. **Fail-stop for this attempt**: the query
    released its admission slot and produced no result.

    Deliberately **not** a :class:`ReproError` (the
    :class:`SanitizerError` reasoning): task retry, index fallback, and
    ingestion supervision absorb library errors by design, but a
    cancelled query must *stop* — re-executing it through a fallback
    path would keep draining exactly the resources cancellation exists
    to release. Only the serving front end catches it.
    """

    def __init__(self, query_id: str, reason: str):
        self.query_id = query_id
        self.reason = reason
        super().__init__(f"query {query_id} cancelled: {reason}")

    def __reduce__(self):
        return (type(self), (self.query_id, self.reason))


class CircuitOpenError(ServingError):
    """A circuit breaker is open: the guarded fault site failed
    persistently and calls now fail fast instead of burning retries.
    Retryable after the breaker's reset window (half-open probe)."""

    def __init__(self, site: str, retry_after_s: float):
        self.site = site
        self.retry_after_s = retry_after_s
        super().__init__(
            f"circuit {site!r} open; fast-failing, probe in {retry_after_s:.3f}s"
        )


class AnalysisError(ReproError):
    """The SQL analyzer could not resolve or type-check a query."""


class ParseError(ReproError):
    """The SQL parser rejected the query text."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PlanningError(ReproError):
    """No physical plan could be produced for a logical plan."""


class CodegenError(ReproError):
    """An expression tree could not be compiled to Python source.

    Raised by :mod:`repro.codegen` when a tree contains a node the
    compiler does not support. Callers treat it as a signal to fall
    back to the interpreted ``Expression.eval`` path, never as a query
    failure."""


class SchemaError(ReproError):
    """Rows do not conform to the expected schema."""


class IndexError_(ReproError):
    """Error in the indexed-dataframe core (named to avoid shadowing
    the builtin :class:`IndexError`)."""


class CapacityError(IndexError_):
    """A row, batch, or pointer field exceeded its addressable capacity."""


class ConcurrencyError(ReproError):
    """An invariant of the concurrent trie / MVCC machinery was violated."""


class StreamingError(ReproError):
    """Error in the in-process broker / ingestion layer."""


class DurabilityError(ReproError):
    """A write-ahead-log or checkpoint I/O operation failed.

    Covers fsync failures, unwritable WAL segments, and checkpoint
    commits that could not complete. Transient in the same sense as a
    broker fault: the in-memory state is still intact and the
    operation may be retried.
    """


class RecoveryError(Exception):
    """Durable state could not be restored on startup.

    Deliberately **not** a :class:`ReproError` (same reasoning as
    :class:`SanitizerError`): task retry, index fallback, and ingestion
    supervision absorb library errors by design, but a checkpoint whose
    CRC seal no longer matches — or a missing durable manifest — means
    the recovered store would silently diverge from the pre-crash
    state. That must abort startup loudly, never be healed by
    re-execution. A *torn WAL tail* is not a recovery error: it is the
    expected signature of a crash mid-write and is truncated silently.
    """


class SimulatedCrash(BaseException):
    """An injected process death (chaos testing only).

    Derives from :class:`BaseException` so that no recovery layer —
    scheduler retries, ingestion supervision, index fallback — can
    absorb it: a real ``kill -9`` is not catchable either. The chaos
    harness catches it at the outermost test level, discards every
    in-memory structure, and restarts from the durable state on disk.
    """

    def __init__(self, site: str):
        self.site = site
        super().__init__(f"simulated crash at site {site!r}")


class SanitizerError(Exception):
    """A runtime sanitizer observed an invariant violation.

    Deliberately **not** a :class:`ReproError`: the retry / fallback
    machinery (scheduler retries, ``GuardedIndexExec`` degradation,
    ingestion supervision) absorbs library errors by design, and a
    sanitizer trip — a write to a sealed row batch, a mutation of a
    snapshot-shared zone map — is a bug that must surface, never be
    healed by re-execution. Raised only when
    ``Config.sanitizers_enabled`` is on.
    """

    def __init__(self, rule: str, message: str):
        self.rule = rule
        super().__init__(f"[{rule}] {message}")


#: The fail-stop classes: failures no recovery layer may absorb. Any
#: ``except Exception`` that sits on a retry / fallback / supervision
#: path must be preceded by the blessed guard ``except FAIL_STOP:
#: raise`` (enforced by ``repro.analysis`` rules ET001–ET003).
#: ``SimulatedCrash`` is not listed because it derives from
#: ``BaseException`` — ``except Exception`` cannot catch it.
FAIL_STOP = (QueryCancelledError, RecoveryError, SanitizerError)
