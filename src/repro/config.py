"""Engine and Indexed-DataFrame configuration.

A single :class:`Config` object travels from the user through the
:class:`~repro.sql.session.Session` into the engine and the indexed
core. It mirrors the handful of Spark knobs the paper's evaluation
depends on:

* ``shuffle_partitions`` — number of reduce-side partitions created by
  an exchange (``spark.sql.shuffle.partitions``);
* ``broadcast_threshold`` — estimated probe-relation size (in rows)
  below which an indexed or vanilla join falls back to a broadcast join
  instead of a shuffle (``spark.sql.autoBroadcastJoinThreshold``);
* ``batch_size_bytes`` / ``max_row_bytes`` — the row-batch geometry of
  the Indexed Row-Batch RDD (paper §2: 4 MB batches, rows up to 1 KB);
* ``executors`` — worker processes, the degree of task parallelism
  (stand-in for the paper's 10-node cluster); ``0`` runs every task on
  the thread that submitted its job.

There is one engine: zone maps on every indexed partition and relation
scan, cost-based bitmap-index planning, and adaptive execution
(reduce-partition coalescing, runtime broadcast replanning) are always
on, and so are compiled kernels (an expression the compiler rejects
falls back to the interpreter on its own), so no knob rebuilds an older
engine.

Fault tolerance adds a second family of knobs, mirroring Spark's
``spark.task.maxFailures`` space: bounded task retries with exponential
backoff, a per-stage deadline, at-least-once ingestion retries,
graceful indexed-operator fallback, and an optional seeded
:class:`~repro.faults.FaultProfile` that switches chaos injection on
for the whole session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import CapacityError, ConfigError
from repro.faults import FaultProfile

#: Spellings accepted by :func:`_env_flag`. Every ``REPRO_*`` boolean
#: flag parses through the same sets, so ``REPRO_SANITIZERS=true`` and
#: ``REPRO_DURABILITY=1`` behave identically.
_ENV_TRUE = frozenset({"1", "true", "yes", "on"})
_ENV_FALSE = frozenset({"", "0", "false", "no", "off"})


def _env_flag(name: str, default: bool = False) -> bool:
    """Parse a ``REPRO_*`` boolean environment flag consistently.

    Case-insensitive: ``1/true/yes/on`` enable, ``0/false/no/off`` (or
    empty/unset) disable. Anything else raises ``ValueError`` — a typo
    like ``REPRO_SANITIZERS=yse`` must not silently run unsanitized.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _ENV_TRUE:
        return True
    if value in _ENV_FALSE:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a valid boolean flag "
        f"(accepted: {'/'.join(sorted(_ENV_TRUE))} or "
        f"{'/'.join(sorted(_ENV_FALSE - frozenset({''})))})"
    )


def _env_int(name: str, default: int) -> int:
    """Parse a ``REPRO_*`` integer environment knob consistently.

    Unset/empty keeps the default; anything non-numeric raises
    ``ValueError`` — a typo like ``REPRO_EXECUTORS=fuor`` must not
    silently fall back to single-process execution.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw.strip())
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid integer") from None


def _executors_default() -> int:
    """Env override for the cluster backend: ``REPRO_EXECUTORS=N``
    runs every session with N worker processes (0 = in-process)."""
    return _env_int("REPRO_EXECUTORS", 0)


def _sanitizers_default() -> bool:
    """Env override so a whole test run can be sanitized without
    touching every Config construction site: ``REPRO_SANITIZERS=1``."""
    return _env_flag("REPRO_SANITIZERS")


def _durability_default() -> bool:
    """Env override to switch on durable state for a whole run:
    ``REPRO_DURABILITY=1``."""
    return _env_flag("REPRO_DURABILITY")


def _serving_default() -> bool:
    """Env override to switch on the serving/resource-governance layer
    for a whole run: ``REPRO_SERVING=1``."""
    return _env_flag("REPRO_SERVING")


#: Paper §2: row batches of 4 MB.
DEFAULT_BATCH_SIZE = 4 * 1024 * 1024
#: Paper §2: rows of up to 1 KB.
DEFAULT_MAX_ROW_BYTES = 1024


@dataclass(frozen=True)
class Config:
    """Immutable configuration for an engine/session.

    Use :meth:`with_options` to derive a modified copy, mirroring the
    builder style of ``SparkConf``.
    """

    #: Number of partitions produced by shuffle exchanges.
    shuffle_partitions: int = 8
    #: Default parallelism used when creating RDDs without an explicit
    #: partition count.
    default_parallelism: int = 4
    #: Driver threads dispatching tasks to the process backend's workers
    #: (the pool has ``max(executor_threads, executors)`` threads).
    #: Unused in-process: there every task runs on the thread that
    #: submitted its job, since under the GIL a pool adds only hand-offs.
    executor_threads: int = 4
    #: Probe relations at most this many rows are broadcast rather than
    #: shuffled in joins.
    broadcast_threshold: int = 10_000
    #: Capacity of the block-manager cache in bytes before LRU eviction.
    cache_capacity_bytes: int = 512 * 1024 * 1024
    #: Size of one indexed row batch in bytes.
    batch_size_bytes: int = DEFAULT_BATCH_SIZE
    #: Maximum encoded row size in bytes.
    max_row_bytes: int = DEFAULT_MAX_ROW_BYTES
    #: Retries allowed per task for *transient* failures (injected
    #: faults, lost shuffle fetches, I/O errors). ``0`` disables
    #: retrying: the first transient failure raises
    #: :class:`~repro.errors.RetryExhaustedError`.
    task_max_retries: int = 3
    #: Base of the exponential retry backoff, in seconds (attempt ``n``
    #: waits ``retry_backoff_s * 2**(n-1)``, capped at 1s).
    retry_backoff_s: float = 0.01
    #: Wall-clock deadline per stage in seconds; ``None`` disables.
    #: On expiry the stage raises :class:`~repro.errors.StageTimeoutError`
    #: and starts no further task. In-process the deadline is checked
    #: between tasks (a running task is not interrupted); with the
    #: process backend it is checked every driver tick.
    stage_timeout_s: float | None = None
    #: Retries allowed for a failed broker poll/commit in the
    #: ingestion loop before it gives up with RetryExhaustedError.
    ingest_max_retries: int = 5
    #: Base of the ingestion retry backoff, in seconds.
    ingest_backoff_s: float = 0.01
    #: Degrade a failing indexed operator (IndexLookup / IndexedJoin)
    #: to the equivalent vanilla plan instead of aborting the query.
    index_fallback: bool = True
    #: Target bytes per reduce partition: once a map stage has recorded
    #: its output sizes, the scheduler coalesces small adjacent shuffle
    #: buckets up to this size (the AQE analogue, always on).
    target_reduce_bytes: int = 256 * 1024
    #: Runtime sanitizers (opt-in, for tests): sealed row batches and
    #: snapshot-shared zone maps become write-poisoned — any mutation
    #: raises :class:`~repro.errors.SanitizerError` instead of silently
    #: corrupting MVCC snapshots. Costs a CRC pass per snapshot, so it
    #: stays off outside the test/CI configurations. ``REPRO_SANITIZERS=1``
    #: in the environment flips the default on for a whole run.
    sanitizers_enabled: bool = field(default_factory=_sanitizers_default)
    #: Durable state: write-ahead-log every indexed append and restore
    #: from checkpoint + WAL replay on startup. Off by default — with
    #: durability off the engine behaves bit-identically to a build
    #: without the subsystem. ``REPRO_DURABILITY=1`` flips the default
    #: on for a whole run.
    durability_enabled: bool = field(default_factory=_durability_default)
    #: Root directory for WAL segments and checkpoints. ``None`` means
    #: the ``REPRO_DURABILITY_DIR`` environment variable, falling back
    #: to ``.repro_state`` under the working directory.
    durability_dir: str | None = None
    #: ``fsync`` WAL batches before acknowledging the append. On is the
    #: production contract (a committed record survives OS death); off
    #: trades that for throughput when only process death matters.
    wal_fsync: bool = True
    #: Checkpoint once a store's live WAL grows past this many bytes.
    wal_checkpoint_bytes: int = 4 * 1024 * 1024
    #: ... or once the oldest uncheckpointed WAL record is older than
    #: this many seconds (whichever comes first).
    wal_checkpoint_age_s: float = 30.0
    #: Poll interval of the background checkpointer thread.
    checkpoint_poll_s: float = 0.1
    #: Serving / resource governance: admission control, per-query
    #: deadlines with cooperative cancellation, memory budgets, and
    #: circuit breakers. Off by default —
    #: with the flag off the engine never installs a query context and
    #: behaves bit-identically to a build without the subsystem.
    #: ``REPRO_SERVING=1`` flips the default on for a whole run.
    serving_enabled: bool = field(default_factory=_serving_default)
    #: Queries allowed to execute concurrently; further admissions wait
    #: in the bounded queue.
    serving_max_concurrent: int = 4
    #: Queries allowed to *wait* for a slot; beyond this depth the
    #: controller sheds load with :class:`~repro.errors.QueryRejectedError`.
    serving_queue_depth: int = 16
    #: Longest a query may wait in the admission queue before it is
    #: rejected (also the basis of the retry-after hint).
    serving_queue_timeout_s: float = 1.0
    #: Per-tenant cap on concurrently executing queries.
    serving_tenant_max_concurrent: int = 2
    #: Default per-query deadline in seconds; ``None`` means unbounded
    #: unless the caller passes one.
    serving_default_deadline_s: float | None = None
    #: Global memory budget charged by row-batch decode, shuffle write,
    #: and broadcast allocations across all running queries. On breach
    #: the governor cancels the largest query (kill-largest policy).
    serving_memory_budget_bytes: int = 256 * 1024 * 1024
    #: Per-query memory budget; a query exceeding it is cancelled.
    serving_query_memory_bytes: int = 64 * 1024 * 1024
    #: Consecutive failures at a guarded fault site before its circuit
    #: breaker trips open (fast-fail).
    serving_breaker_failures: int = 5
    #: Seconds an open breaker fast-fails before letting one half-open
    #: probe through.
    serving_breaker_reset_s: float = 1.0
    #: Worker *processes* for the cluster backend. ``0`` (the default)
    #: keeps everything in-process — bit-identical plans and results to
    #: a build without the subsystem. ``N > 0`` forks N executors that
    #: own partitions by ``split % N``, receive pickled task closures
    #: over pipes, read sealed row batches zero-copy out of
    #: ``multiprocessing.shared_memory``, and exchange shuffle data via
    #: per-worker spill files. ``REPRO_EXECUTORS=N`` flips the default
    #: for a whole run.
    executors: int = field(default_factory=_executors_default)
    #: Directory for cluster shuffle spill files; ``None`` uses a
    #: session-scoped temporary directory removed at ``stop()``.
    cluster_spill_dir: str | None = None
    #: Seconds between worker→driver heartbeats. ``0`` disables the
    #: liveness monitor entirely (pre-PR-10 behavior: a hung worker is
    #: only caught by ``rpc_deadline``, or never).
    heartbeat_interval: float = 0.05
    #: A worker slot whose last beat is older than this is declared
    #: dead and fenced: its generation is killed, its map outputs are
    #: rejected, and the slot respawns. Must exceed
    #: ``heartbeat_interval`` (several beats must fit in the window).
    #: Halfway to the timeout the slot turns *suspect*: a task in flight
    #: there gets a backup attempt on a healthy slot.
    heartbeat_timeout: float = 2.0
    #: Per-RPC deadline in seconds for a dispatched cluster task:
    #: a worker that neither replies nor dies within this window is
    #: fenced and the attempt fails with
    #: :class:`~repro.errors.ClusterTimeoutError` (transient).
    #: ``None`` disables the deadline — a task may legitimately run
    #: arbitrarily long; heartbeats still catch *hung* workers.
    rpc_deadline: float | None = None
    #: Bounded retries for one shuffle spill-file read before it is
    #: reported as a :class:`~repro.errors.FetchFailedError` (each
    #: retry backs off briefly; transient FS hiccups heal, a file that
    #: died with its worker still fails fast).
    rpc_max_retries: int = 2
    #: Analyzed+optimized logical plans memoized per session, keyed by
    #: a parameterized plan fingerprint (literal values slotted out).
    #: ``0`` disables the plan cache entirely.
    plan_cache_size: int = 128
    #: Seeded chaos-injection profile; ``None`` (the default) disables
    #: all fault injection. Every site, the cluster backend's gray
    #: failures included, draws a keyed hash of its event on the
    #: driver; workers fork with the profile stripped and only obey the
    #: directives shipped in their task envelopes.
    faults: FaultProfile | None = None

    def _require(self, knob: str, ok: bool, requirement: str) -> None:
        """One validation: a failed requirement is a loud
        :class:`~repro.errors.ConfigError` at construction (also a
        ``ValueError``) naming the knob and its actual value — never a
        misbehaving engine at runtime."""
        if not ok:
            raise ConfigError(
                f"{knob} must be {requirement}, got {getattr(self, knob)!r}"
            )

    def __post_init__(self) -> None:
        require = self._require
        require("shuffle_partitions", self.shuffle_partitions >= 1, ">= 1")
        require("default_parallelism", self.default_parallelism >= 1, ">= 1")
        require("executor_threads", self.executor_threads >= 1, ">= 1")
        if self.batch_size_bytes < 1024:
            raise CapacityError("batch_size_bytes must be at least 1 KiB")
        if self.max_row_bytes < 16:
            raise CapacityError("max_row_bytes must be at least 16 bytes")
        if self.max_row_bytes > self.batch_size_bytes:
            raise CapacityError(
                "max_row_bytes cannot exceed batch_size_bytes: "
                f"{self.max_row_bytes} > {self.batch_size_bytes}"
            )
        require("task_max_retries", self.task_max_retries >= 0, ">= 0")
        require("retry_backoff_s", self.retry_backoff_s >= 0, ">= 0")
        require(
            "stage_timeout_s",
            self.stage_timeout_s is None or self.stage_timeout_s > 0,
            "positive (or None)",
        )
        require("ingest_max_retries", self.ingest_max_retries >= 0, ">= 0")
        require("ingest_backoff_s", self.ingest_backoff_s >= 0, ">= 0")
        require("target_reduce_bytes", self.target_reduce_bytes >= 1, ">= 1")
        require("wal_checkpoint_bytes", self.wal_checkpoint_bytes >= 1, ">= 1")
        require("wal_checkpoint_age_s", self.wal_checkpoint_age_s > 0, "positive")
        require("checkpoint_poll_s", self.checkpoint_poll_s > 0, "positive")
        require("serving_max_concurrent", self.serving_max_concurrent >= 1, ">= 1")
        require("serving_queue_depth", self.serving_queue_depth >= 0, ">= 0")
        require(
            "serving_queue_timeout_s", self.serving_queue_timeout_s > 0, "positive"
        )
        require(
            "serving_tenant_max_concurrent",
            self.serving_tenant_max_concurrent >= 1,
            ">= 1",
        )
        require(
            "serving_default_deadline_s",
            self.serving_default_deadline_s is None
            or self.serving_default_deadline_s > 0,
            "positive (or None)",
        )
        require(
            "serving_memory_budget_bytes",
            self.serving_memory_budget_bytes >= 1,
            ">= 1",
        )
        require(
            "serving_query_memory_bytes", self.serving_query_memory_bytes >= 1, ">= 1"
        )
        require(
            "serving_breaker_failures", self.serving_breaker_failures >= 1, ">= 1"
        )
        require(
            "serving_breaker_reset_s", self.serving_breaker_reset_s > 0, "positive"
        )
        require("executors", 0 <= self.executors <= 64, "in [0, 64]")
        require("plan_cache_size", self.plan_cache_size >= 0, ">= 0")
        require(
            "heartbeat_interval", self.heartbeat_interval >= 0, ">= 0 (0 disables)"
        )
        if self.heartbeat_interval > 0 and not (
            self.heartbeat_timeout > self.heartbeat_interval
        ):
            raise ConfigError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"(several beats must fit in the window), got "
                f"{self.heartbeat_timeout!r} <= {self.heartbeat_interval!r}"
            )
        require("heartbeat_timeout", self.heartbeat_timeout > 0, "positive")
        require(
            "rpc_deadline",
            self.rpc_deadline is None or self.rpc_deadline > 0,
            "positive (or None)",
        )
        require("rpc_max_retries", self.rpc_max_retries >= 0, ">= 0")
        faults = self.faults
        if faults is not None and self.rpc_deadline is None:
            # A dropped reply leaves the worker beating, so no fence
            # fires; a hang with heartbeats off has no detector either.
            # Either would block the dispatching thread forever.
            require(
                "rpc_deadline",
                faults.cluster_drop_p == 0.0,
                "set when faults arm cluster.drop (heartbeats keep "
                "flowing during a dropped reply)",
            )
            require(
                "rpc_deadline",
                faults.cluster_hang_p == 0.0 or self.heartbeat_interval > 0,
                "set when faults arm cluster.hang with heartbeat_interval=0 "
                "(nothing else detects a hung worker)",
            )

    def with_options(self, **changes: Any) -> "Config":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **changes)
