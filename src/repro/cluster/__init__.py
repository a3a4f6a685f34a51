"""Multi-process sharded executors: GIL-free parallel task execution.

Enabled by ``Config(executors=N)`` (or ``REPRO_EXECUTORS=N``): the
session injects the stack :func:`process_backend` builds into its
engine context. The default ``executors=0`` keeps the engine fully
in-process, and the engine never imports this package. See DESIGN.md §13
for the process model and §16 for the gray-failure hardening —
heartbeats (:mod:`repro.cluster.liveness`), per-RPC deadlines, fenced
respawn, and worker-local WAL replay
(:mod:`repro.cluster.walship`).
"""

from repro.cluster.backend import ProcessBackend, process_backend
from repro.cluster.liveness import HeartbeatMonitor, beat_loop
from repro.cluster.shm import DriverShipStore, WorkerShipCache
from repro.cluster.shuffle import ClusterShuffleManager, WorkerShuffleClient
from repro.cluster.spill import (
    DRIVER_IDENTITY,
    MapStatus,
    SpillMapWriter,
    set_worker_identity,
)
from repro.cluster.walship import WorkerWalCache

__all__ = [
    "ClusterShuffleManager",
    "DRIVER_IDENTITY",
    "DriverShipStore",
    "HeartbeatMonitor",
    "MapStatus",
    "ProcessBackend",
    "SpillMapWriter",
    "WorkerShipCache",
    "WorkerShuffleClient",
    "WorkerWalCache",
    "beat_loop",
    "process_backend",
    "set_worker_identity",
]
