"""Worker process: the executor half of the cluster backend.

Each worker runs :func:`worker_main` — a synchronous loop over one
duplex pipe: receive an envelope, run the task, send the reply. One
task at a time per worker (Spark's one-core executor), so the loop
needs no locking.

The :class:`WorkerContext` is the process-local stand-in the codec
substitutes for the driver's :class:`~repro.engine.context.EngineContext`
inside shipped RDD graphs. It exposes exactly the surface task
``compute()`` paths read — config, block manager, shuffle fetch,
fault injector — and refuses driver-only operations (``run_job``)
loudly instead of deadlocking.

Cross-process cancellation: while a task runs, the driver mirrors its
query's cancel into the slot's shared flag; the worker activates a
:class:`QueryContext` whose token reads that flag, so every existing
``check_cancelled`` poll site works unmodified across the boundary.
Deadlines ship as absolute ``time.monotonic`` instants, which share an
epoch across processes on Linux (CLOCK_MONOTONIC is system-wide).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro.cluster.codec import dumps_reply, loads_envelope
from repro.cluster.liveness import beat_loop
from repro.cluster.shuffle import WorkerShuffleClient
from repro.cluster.spill import set_worker_identity
from repro.engine.cache import BlockManager
from repro.errors import EngineError
from repro.faults import NULL_INJECTOR
from repro.engine.query import QueryContext, activate, deactivate

#: Message framing: first byte selects the payload decoder.
MSG_TASK = b"T"
MSG_CRASH = b"C"
MSG_STOP = b"S"

#: Cancellation reasons encoded into the shared flag. Unlisted reasons
#: travel as the generic code and decode to ``"cancelled"`` — the
#: driver re-raises with full fidelity from its own token anyway.
_REASON_TO_CODE = {"user": 1, "deadline": 2, "memory": 3, "shutdown": 4}
_CODE_TO_REASON = {1: "user", 2: "deadline", 3: "memory", 4: "shutdown"}
GENERIC_CANCEL_CODE = 5


def encode_cancel_reason(reason: str) -> int:
    return _REASON_TO_CODE.get(reason, GENERIC_CANCEL_CODE)


def decode_cancel_reason(code: int) -> str:
    return _CODE_TO_REASON.get(code, "cancelled")


class SharedFlagToken:
    """Token facade over the slot's shared cancellation flag.

    Duck-types :class:`~repro.engine.query.CancellationToken` for
    the poll path (``reason`` / ``cancelled`` / ``cancel``). A local
    ``cancel`` (worker-side deadline expiry) also writes the flag; the
    driver clears it once the task's reply is in.
    """

    __slots__ = ("_flag",)

    def __init__(self, flag) -> None:
        self._flag = flag

    @property
    def reason(self) -> str | None:
        code = self._flag.value
        return None if code == 0 else decode_cancel_reason(code)

    @property
    def cancelled(self) -> bool:
        return self._flag.value != 0

    def cancel(self, reason: str) -> bool:
        if self._flag.value == 0:
            self._flag.value = encode_cancel_reason(reason)
            return True
        return False


class WorkerContext:
    """Process-local EngineContext stand-in for shipped RDD graphs."""

    def __init__(self, worker_id: int, config) -> None:
        from repro.cluster.shm import WorkerShipCache
        from repro.stats import PruningMetrics

        self.worker_id = worker_id
        self.config = config
        self.fault_injector = NULL_INJECTOR
        self.block_manager = BlockManager(config.cache_capacity_bytes)
        self.shuffle_manager = WorkerShuffleClient(config.rpc_max_retries)
        self.ship_cache = WorkerShipCache()
        self.pruning_metrics = PruningMetrics()
        self.serving = None

    # -- codec hooks ----------------------------------------------------

    def install_plan(self, plan: dict) -> None:
        self.shuffle_manager.install_plan(plan)

    # -- driver-only surface -------------------------------------------

    def run_job(self, *_args: Any, **_kwargs: Any) -> Any:
        raise EngineError(
            "run_job is driver-only: an action inside a shipped task "
            "closure cannot launch nested jobs on a worker"
        )

    def broadcast(self, *_args: Any, **_kwargs: Any) -> Any:
        raise EngineError("broadcast construction is driver-only")

    def __repr__(self) -> str:
        return f"WorkerContext(worker={self.worker_id}, pid={os.getpid()})"


def _make_query_context(info: dict, cancel_flag) -> QueryContext:
    query = QueryContext(
        info["query_id"],
        info["tenant"],
        info["priority"],
        info["deadline"],
    )
    query.token = SharedFlagToken(cancel_flag)  # type: ignore[assignment]
    return query


def worker_main(
    conn,
    worker_id: int,
    config,
    cancel_flag,
    beat_conn=None,
    generation: int = 0,
) -> None:
    """The worker loop (runs as the forked process's main)."""
    ctx = WorkerContext(worker_id, config)
    # Every spill file this process writes carries its fencing identity.
    set_worker_identity(worker_id, generation)
    beat_pause = threading.Event()
    beat_stop = threading.Event()
    if beat_conn is not None and config.heartbeat_interval > 0:
        threading.Thread(
            target=beat_loop,
            args=(
                beat_conn,
                generation,
                config.heartbeat_interval,
                beat_pause,
                beat_stop,
            ),
            name=f"repro-beat-{worker_id}",
            daemon=True,
        ).start()
    try:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            kind, body = data[:1], data[1:]
            if kind == MSG_STOP:
                break
            if kind == MSG_CRASH:
                # Injected worker death: a real exit, not an exception —
                # nothing below the scheduler may absorb it.
                os._exit(137)
            try:
                envelope = loads_envelope(body, ctx)
                chaos = envelope.get("chaos")
                if chaos == "hang":
                    # Whole-worker freeze: beats stop, compute stops.
                    # The heartbeat monitor fences and SIGKILLs us; the
                    # sleep bound only caps the blast radius if it does
                    # not (heartbeats disabled).
                    beat_pause.set()
                    time.sleep(  # lint: allow[CP001] -- injected gray failure; process is killed by the monitor
                        max(config.heartbeat_timeout * 4.0, 1.0)
                    )
                    beat_pause.clear()
                    continue
                if chaos == "delay":
                    # Straggler, not a failure: beats keep flowing.
                    time.sleep(envelope.get("chaos_delay_s", 0.05))
                ctx.install_plan(envelope.get("plan") or {})
                info = envelope.get("query")
                token = None
                if info is not None:
                    token = activate(_make_query_context(info, cancel_flag))
                try:
                    result = envelope["task"](envelope["split"])
                finally:
                    if token is not None:
                        deactivate(token)
                if chaos == "drop":
                    # Compute then stay silent — the reply is dropped on
                    # the floor. Beats continue, so only the per-RPC
                    # deadline (not the heartbeat) can fence us.
                    continue
                reply = dumps_reply("ok", result, generation)
            except BaseException as exc:  # lint: allow[ET002] -- exception is the reply; the driver re-raises it
                reply = dumps_reply("err", exc, generation)
            try:
                conn.send_bytes(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        beat_stop.set()
        ctx.ship_cache.close()
