"""The process backend: task attempts in N forked worker processes.

The DAG scheduler dispatches through :class:`ProcessBackend.run_task`
the same way it calls the engine's in-process
:class:`~repro.engine.backend.LocalBackend` (re-exported here). The
closure is pickled by the task codec, heavy leaf data is shipped once
through shared memory, and shuffle output is spilled to per-worker
files. :func:`process_backend` builds the whole stack from a
``Config``; the session injects it into its engine context, which
imports nothing from this package.

Topology: one pipe + one driver-side dispatcher thread per worker.
A worker runs one task at a time (Spark's one-core executor), so the
dispatcher serialises envelopes per worker; parallelism comes from the
worker *count*. Partition ownership is static modulo respawn:
``split % num_workers`` picks the slot, so repeated scans of the same
data hit the same worker's shared-memory attachments and page cache.

Worker death (injected ``cluster.worker_crash`` or a real SIGKILL)
surfaces as EOF on the pipe. The dispatcher respawns the slot (bumping
its generation), invalidates every map output the dead pid produced —
promoting PR 1's fetch-failure fault model to real process loss — and
fails the in-flight attempt with :class:`~repro.errors.WorkerLostError`,
which the scheduler's retry policy treats as transient.

Jobs run concurrently, so the backend keeps no per-job state: the
scheduler passes each dispatch's attempt number, and cancellation is per
slot. Each slot owns a shared cancel flag its worker inherits through
fork; while a task runs there, the dispatcher mirrors that task's query
token into the flag, and every worker-side ``check_cancelled`` poll
reads it through a :class:`~repro.cluster.worker.SharedFlagToken`. A
cancel therefore reaches only the slots running that query's tasks.
"""

from __future__ import annotations

import functools
import glob
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from queue import SimpleQueue
from typing import Any, Callable

from repro.cluster.codec import TaskCodec, loads_reply
from repro.cluster.liveness import HeartbeatMonitor
from repro.cluster.shm import DriverShipStore
from repro.cluster.shuffle import ClusterShuffleManager
from repro.cluster.worker import (
    MSG_CRASH,
    MSG_STOP,
    MSG_TASK,
    encode_cancel_reason,
    worker_main,
)
from repro.config import Config
from repro.engine.backend import ExecutorBackend, LocalBackend
from repro.engine.query import QueryContext, current_query
from repro.errors import (
    FAIL_STOP,
    ClusterTimeoutError,
    EngineError,
    WalReplayError,
    WorkerLostError,
)
from repro.faults import NULL_INJECTOR, FaultInjector

__all__ = ["ExecutorBackend", "LocalBackend", "ProcessBackend", "process_backend"]

#: Queue sentinel that shuts a dispatcher down.
_STOP = object()
#: Grace period for a worker to exit after MSG_STOP before SIGTERM.
_JOIN_TIMEOUT_S = 2.0
#: Cancellation-poll period while waiting on a dispatched task.
_RESULT_TICK_S = 0.05


def _await_result(box: Future, query: QueryContext | None) -> Any:
    """Wait for a dispatched task's result, polling cancellation.

    ``box.result()`` with no timeout would pin the calling thread until
    the worker replies — a cancelled or deadline-expired query could
    not unwind until its in-flight task finished. Waking every tick to
    poll keeps the driver's cancellation latency bounded by
    ``_RESULT_TICK_S`` regardless of task length; the task itself keeps
    running worker-side until its own poll (the worker mirrors the
    cancel flag), but the driver stops burning a slot on it.
    """
    while True:
        try:
            return box.result(timeout=_RESULT_TICK_S)
        except FutureTimeout:
            if query is not None:
                query.check()


class _WorkerSlot:
    """One worker process plus its driver-side plumbing."""

    __slots__ = (
        "slot_id",
        "flag",
        "lock",
        "query",
        "generation",
        "process",
        "conn",
        "beat_conn",
        "queue",
        "thread",
        "pid",
    )

    def __init__(self, slot_id: int, flag) -> None:
        self.slot_id = slot_id
        #: Shared cancel flag, inherited by every worker this slot forks:
        #: 0 = live; nonzero = a cancel reason code (worker.py).
        self.flag = flag
        self.lock = threading.Lock()
        #: The query whose task is on the slot now, if any.
        self.query: QueryContext | None = None  # guarded-by: lock
        self.generation = 0
        self.process = None
        self.conn = None
        self.beat_conn = None
        self.queue: SimpleQueue = SimpleQueue()
        self.thread: threading.Thread | None = None
        self.pid: int | None = None

    def mirror_cancel(self, query: QueryContext, reason: str) -> None:
        """Token listener: flag the slot if ``query``'s task is still on it."""
        with self.lock:
            if self.query is query:
                self.flag.value = encode_cancel_reason(reason)


class ProcessBackend(ExecutorBackend):
    """N forked worker processes behind per-worker dispatch threads."""

    def __init__(
        self,
        num_workers: int,
        config,
        shuffles,
        ship_store,
        injector: FaultInjector | None = None,
        owns_spill_root: bool = False,
    ) -> None:
        if num_workers < 1:
            raise EngineError("ProcessBackend requires at least one worker")
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise EngineError(
                "the process backend requires the fork start method"
            ) from exc
        self._config = config
        self._worker_config = self._strip_config(config)
        self._shuffles = shuffles
        self._ship = ship_store
        self._injector = injector or NULL_INJECTOR
        self._codec = TaskCodec(ship_store)
        self._lock = threading.Lock()
        self._counters = {  # guarded-by: _lock
            "tasks_dispatched": 0,
            "codec_fallbacks": 0,
            "workers_lost": 0,
            "crashes_injected": 0,
            "heartbeat_fences": 0,
            "rpc_timeouts": 0,
            "stale_replies_dropped": 0,
            "hangs_injected": 0,
            "delays_injected": 0,
            "drops_injected": 0,
            "wal_replay_fallbacks": 0,
        }
        #: Fence verdicts per (slot_id, generation): why a generation
        #: was killed. Consumed by the dispatcher's death path to pick
        #: ClusterTimeoutError over WorkerLostError.
        self._fence_reasons: dict[tuple[int, int], str] = {}  # guarded-by: _lock
        self._owns_spill_root = owns_spill_root
        self.pool = ThreadPoolExecutor(
            max_workers=max(config.executor_threads, num_workers),
            thread_name_prefix="repro-executor",
        )
        self._stopped = False
        self._monitor: HeartbeatMonitor | None = None
        if config.heartbeat_interval > 0:
            self._monitor = HeartbeatMonitor(
                config.heartbeat_interval,
                config.heartbeat_timeout,
                self._on_heartbeat_dead,
                self._injector,
            )
        self._slots = [
            _WorkerSlot(i, self._mp.RawValue("i", 0)) for i in range(num_workers)
        ]
        for slot in self._slots:
            self._spawn(slot)
            slot.thread = threading.Thread(
                target=self._dispatch_loop,
                args=(slot,),
                name=f"repro-dispatch-{slot.slot_id}",
                daemon=True,
            )
            slot.thread.start()
        if self._monitor is not None:
            self._monitor.start()

    @staticmethod
    def _strip_config(config):
        """The config workers fork with: no nested executors and no
        fault profile (fault draws happen at dispatch on the driver, so
        each event is drawn exactly once — workers only *obey* shipped
        directives)."""
        import dataclasses

        return dataclasses.replace(config, executors=0, faults=None)

    # -- process lifecycle ---------------------------------------------

    def _spawn(self, slot: _WorkerSlot) -> int:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        # Dedicated beat channel (worker → driver), separate from the
        # task pipe so beats flow while a long task is computing.
        beat_recv, beat_send = self._mp.Pipe(duplex=False)
        slot.generation += 1
        process = self._mp.Process(
            target=worker_main,
            args=(
                child_conn,
                slot.slot_id,
                self._worker_config,
                slot.flag,
                beat_send,
                slot.generation,
            ),
            name=f"repro-worker-{slot.slot_id}-g{slot.generation}",
            daemon=True,
        )
        process.start()
        # Close the driver's copy of the child ends: worker death then
        # surfaces as EOF on the very next recv instead of a hang.
        child_conn.close()
        beat_send.close()
        slot.process = process
        slot.conn = parent_conn
        slot.beat_conn = beat_recv
        slot.pid = process.pid
        if self._monitor is not None:
            self._monitor.register(
                slot.slot_id, slot.generation, beat_recv, process.pid
            )
        return slot.generation

    def _on_heartbeat_dead(self, slot_id: int, generation: int, pid: int) -> None:
        """Monitor verdict: record the fence and bump the counter. The
        monitor already SIGKILLed the pid; the resulting pipe EOF drives
        the dispatcher's single death path, which consumes the recorded
        reason and raises ClusterTimeoutError instead of WorkerLostError."""
        self._note_fence(slot_id, generation, "heartbeat")
        self._bump("heartbeat_fences")

    def _note_fence(self, slot_id: int, generation: int, reason: str) -> None:
        with self._lock:
            self._fence_reasons.setdefault((slot_id, generation), reason)
        # Zombie output written by this generation — already committed
        # or still in flight — must never feed a reduce task.
        self._shuffles.note_fenced(slot_id, generation)

    def _pop_fence(self, slot_id: int, generation: int) -> str | None:
        with self._lock:
            return self._fence_reasons.pop((slot_id, generation), None)

    def _reap_spill_files(self, pid: int) -> int:
        """Delete every spill file a dead pid left behind — including
        uncommitted ones no MapStatus ever pointed at (a kill can land
        between file write and commit)."""
        if pid < 0:
            return 0
        reaped = 0
        pattern = os.path.join(self._shuffles.spill_root, f"*_p{pid}_*.bin")
        for path in glob.glob(pattern):
            try:
                os.unlink(path)
                reaped += 1
            except OSError:
                pass
        return reaped

    def _dispatch_loop(self, slot: _WorkerSlot) -> None:
        """Per-worker dispatcher: serialise envelopes down the pipe, one
        in flight at a time, respawning the worker on death."""
        while True:  # lint: allow[CP001] -- slot pump outlives any one query; run_task's result wait polls
            item = slot.queue.get()
            if item is _STOP:
                try:
                    slot.conn.send_bytes(MSG_STOP)
                except (OSError, BrokenPipeError, ValueError):
                    pass
                return
            payload, box, query = item
            try:
                raw = self._round_trip(slot, payload, query)
            except (EOFError, OSError, BrokenPipeError):
                dead_pid = slot.pid or -1
                dead_generation = slot.generation
                try:
                    slot.conn.close()
                except OSError:
                    pass
                if self._stopped:
                    box.set_exception(
                        EngineError("executor backend stopped mid-task")
                    )
                    return
                # Fence the dead generation *before* respawn: a zombie
                # reply already decoded on another thread, or a spill
                # file committed late, must not outlive the verdict.
                self._shuffles.note_fenced(slot.slot_id, dead_generation)
                fence_reason = self._pop_fence(slot.slot_id, dead_generation)
                generation = self._spawn(slot)
                # Invalidate *before* failing the attempt: the retry
                # must observe the missing map outputs, not stale
                # statuses pointing at deleted spill files.
                lost = self._shuffles.handle_worker_death(dead_pid)
                self._reap_spill_files(dead_pid)
                self._bump("workers_lost")
                detail = (
                    f"pid {dead_pid} died mid-task; "
                    f"{lost} map outputs invalidated"
                )
                if fence_reason is not None:
                    box.set_exception(
                        ClusterTimeoutError(
                            slot.slot_id, dead_generation, fence_reason, detail
                        )
                    )
                else:
                    box.set_exception(
                        WorkerLostError(slot.slot_id, generation, detail)
                    )
                continue
            try:
                status, payload_obj, deltas, reply_generation = loads_reply(raw)
            except FAIL_STOP:
                raise
            except Exception as exc:  # noqa: BLE001 - defensive decode
                box.set_exception(
                    EngineError(f"undecodable worker reply: {exc!r}")
                )
                continue
            if reply_generation != slot.generation:
                # Structural fencing (one pipe per generation) makes
                # this near-impossible, but a stamped zombie answer is
                # dropped, never trusted. The task pipe is now out of
                # sync, so the generation is fenced and killed; the EOF
                # path respawns it cleanly.
                self._bump("stale_replies_dropped")
                self._note_fence(slot.slot_id, slot.generation, "stale-reply")
                self._kill_slot(slot)
                slot.queue.put(item)
                continue
            if status == "err" and isinstance(payload_obj, WalReplayError):
                # Worker-local replay cannot reproduce this snapshot:
                # gate the partition back onto the shm path so the
                # retried task re-pickles with a segment token.
                self._ship.disable_wal_ship(
                    (payload_obj.store_dir, payload_obj.partition_index)
                )
                self._bump("wal_replay_fallbacks")
            self._replay_deltas(deltas)
            if status == "ok":
                box.set_result(payload_obj)
            else:
                box.set_exception(payload_obj)

    def _round_trip(
        self, slot: _WorkerSlot, payload: bytes, query: QueryContext | None
    ) -> bytes:
        """Send one envelope and receive its reply, with ``query``'s
        cancellation mirrored into the slot's flag for exactly as long."""
        with slot.lock:
            slot.query = query
        mirror = functools.partial(slot.mirror_cancel, query)
        if query is not None:
            query.token.add_listener(mirror)
        try:
            slot.conn.send_bytes(payload)
            return self._recv_reply(slot)
        finally:
            if query is not None:
                query.token.remove_listener(mirror)
            with slot.lock:
                slot.query = None
                slot.flag.value = 0

    def _recv_reply(self, slot: _WorkerSlot) -> bytes:
        """Receive one reply, enforcing the per-RPC deadline.

        With no deadline configured this is a plain blocking receive
        (a heartbeat fence still breaks it: the monitor's SIGKILL turns
        the block into EOF). With a deadline, the wait polls in ticks;
        on expiry the slot is fenced with reason ``rpc-deadline`` and
        killed, and the read returns through the EOF path — one death
        path for every failure mode.
        """
        deadline = self._config.rpc_deadline
        if deadline is None:
            return slot.conn.recv_bytes()
        start = time.monotonic()
        while not slot.conn.poll(_RESULT_TICK_S):  # lint: allow[CP001] -- bounded by rpc_deadline; cancellation is polled by run_task's _await_result
            if time.monotonic() - start >= deadline:
                self._bump("rpc_timeouts")
                self._note_fence(slot.slot_id, slot.generation, "rpc-deadline")
                self._kill_slot(slot)
                # A reply racing in *after* the verdict is zombie data:
                # never read it — the death path closes this pipe.
                raise EOFError(
                    f"rpc deadline ({deadline}s) expired on "
                    f"slot {slot.slot_id}"
                )
        return slot.conn.recv_bytes()

    @staticmethod
    def _kill_slot(slot: _WorkerSlot) -> None:
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()

    def _replay_deltas(self, deltas: list) -> None:
        """Fold worker-side accumulator adds into the driver objects."""
        for accumulator_id, values in deltas:
            accumulator = self._codec.accumulators.get(accumulator_id)
            if accumulator is None:
                continue
            for value in values:
                accumulator.add(value)

    # -- backend surface ------------------------------------------------

    def run_task(
        self,
        task: Callable[[int], Any],
        split: int,
        attempt: int = 0,
        prefer_healthy: bool = False,
    ) -> Any:
        query = current_query()
        if self._injector.should_fire("cluster.worker_crash", split):
            # A crash directive instead of the task: the worker hard-
            # exits, the dispatcher raises WorkerLostError, and the
            # scheduler's transient-retry path re-runs the attempt.
            self._bump("crashes_injected")
            payload = MSG_CRASH
        else:
            envelope = {
                "task": task,
                "split": split,
                "query": self._query_info(query),
                "plan": self._shuffles.export_plan(),
            }
            self._draw_chaos(envelope, split, attempt)
            try:
                payload = MSG_TASK + self._codec.dumps_envelope(envelope)
            except FAIL_STOP:
                raise
            except Exception:  # noqa: BLE001 - exotic closures degrade
                self._bump("codec_fallbacks")
                return task(split)
        slot = self._pick_slot(split, prefer_healthy)
        box: Future = Future()
        slot.queue.put((payload, box, query))
        self._bump("tasks_dispatched")
        return _await_result(box, query)

    def _pick_slot(self, split: int, prefer_healthy: bool) -> _WorkerSlot:
        slot = self._slots[split % len(self._slots)]
        if not prefer_healthy or self._monitor is None or len(self._slots) < 2:
            return slot
        suspects = self._monitor.suspect_slots()
        if slot.slot_id not in suspects:
            return slot
        # Speculative attempt racing a SUSPECT slot: route it to the
        # first healthy slot so the backup does not queue behind the
        # very straggler it is meant to beat.
        for other in self._slots:
            if other.slot_id not in suspects:
                return other
        return slot

    def _draw_chaos(self, envelope: dict, split: int, attempt: int) -> None:
        """Draw this dispatch's gray failures (driver-side, keyed by
        split and the job's attempt number, so a run replays
        bit-identically from its seed) and ship the winning directive in
        the envelope. Sites are mutually exclusive per dispatch — a
        worker cannot hang *and* drop."""
        injector = self._injector
        profile = injector.profile
        if profile is None:
            return
        if injector.should_fire("cluster.hang", split, attempt):
            envelope["chaos"] = "hang"
            self._bump("hangs_injected")
        elif injector.should_fire("cluster.drop", split, attempt):
            envelope["chaos"] = "drop"
            self._bump("drops_injected")
        elif injector.should_fire("cluster.delay", split, attempt):
            envelope["chaos"] = "delay"
            envelope["chaos_delay_s"] = profile.slow_delay_s
            self._bump("delays_injected")

    def suspect_slots(self) -> frozenset[int]:
        """Slots the heartbeat monitor currently distrusts (speculation
        input for the scheduler)."""
        if self._monitor is None:
            return frozenset()
        return self._monitor.suspect_slots()

    def slot_for_split(self, split: int) -> int:
        """The slot that owns a split under static partition ownership."""
        return split % len(self._slots)

    @staticmethod
    def _query_info(query: QueryContext | None) -> dict[str, Any] | None:
        if query is None:
            return None
        # Deadline ships as the absolute monotonic instant: CLOCK_MONOTONIC
        # shares an epoch across processes on Linux.
        return {
            "query_id": query.query_id,
            "tenant": query.tenant,
            "priority": query.priority,
            "deadline": query.deadline,
        }

    def stats(self) -> dict[str, int]:
        with self._lock:
            counters = dict(self._counters)
        counters["workers"] = len(self._slots)
        counters["generations"] = sum(s.generation for s in self._slots)
        if self._monitor is not None:
            for key, value in self._monitor.stats().items():
                if key != "heartbeat_fences":  # backend counts fences itself
                    counters[key] = value
        return counters

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.pool.shutdown(wait=True)
        # Monitor first: a fence verdict mid-shutdown would race the
        # orderly MSG_STOP path below.
        if self._monitor is not None:
            self._monitor.stop()
        for slot in self._slots:
            slot.queue.put(_STOP)
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(timeout=_JOIN_TIMEOUT_S)
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            # Escalate until the process is actually gone: join →
            # SIGTERM → SIGKILL. A worker wedged in a hang directive (or
            # a real gray failure) ignores everything short of the kill,
            # and a leaked zombie holds its shm attachments forever.
            process.join(timeout=_JOIN_TIMEOUT_S)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT_S)
            if process.is_alive():
                process.kill()
                process.join(timeout=_JOIN_TIMEOUT_S)
            for conn in (slot.conn, slot.beat_conn):
                if conn is None:
                    continue
                try:
                    conn.close()
                except OSError:
                    pass
            if slot.pid is not None:
                self._reap_spill_files(slot.pid)
        self._ship.close()
        if self._owns_spill_root:
            shutil.rmtree(self._shuffles.spill_root, ignore_errors=True)

    def _bump(self, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1


def process_backend(
    config: Config, injector: FaultInjector
) -> tuple[ProcessBackend, ClusterShuffleManager]:
    """The stack ``Config(executors=N)`` runs on, for an engine context.

    A spill root (``cluster_spill_dir``, else a temporary directory the
    backend removes when it stops), the spill-file shuffle manager over
    it, the shared-memory ship store, and N worker processes fed by
    ``max(executor_threads, N)`` dispatch threads.
    """
    owns_spill_root = config.cluster_spill_dir is None
    spill_root = (
        tempfile.mkdtemp(prefix="repro-spill-")
        if owns_spill_root
        else config.cluster_spill_dir
    )
    shuffles = ClusterShuffleManager(spill_root, injector, config.rpc_max_retries)
    backend = ProcessBackend(
        config.executors,
        config,
        shuffles,
        DriverShipStore(),
        injector,
        owns_spill_root,
    )
    return backend, shuffles
