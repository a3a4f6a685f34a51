"""Cluster shuffle: the registry over spill files + worker fetch client.

:class:`ClusterShuffleManager` is the engine's
:class:`~repro.engine.shuffle.ShuffleManager` with
:class:`~repro.cluster.spill.MapStatus` records as its medium: map
tasks write through a picklable :class:`~repro.cluster.spill.SpillMapWriter`,
fetches read the spill files, and every registry operation is the
engine's. What is specific to processes lives here: fencing zombie
generations, invalidating a dead worker's outputs, and the fetch plan
shipped to workers. :class:`WorkerShuffleClient` is the worker half: it
resolves fetches against the fetch plan shipped in each task envelope.

Dead workers lose their map outputs (statuses invalidated, files
deleted), so the next fetch raises
:class:`~repro.errors.FetchFailedError` and the scheduler's lineage
machinery recomputes exactly the missing maps — the promotion of the
PR 1 fault model to real process death.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.cluster.spill import MapStatus, SpillMapWriter, read_bucket
from repro.engine.shuffle import ShuffleDependency, ShuffleManager, drain
from repro.errors import FetchFailedError


class ClusterShuffleManager(ShuffleManager):
    """Spill-file map-output registry for the process backend."""

    def __init__(
        self, spill_root: str, injector=None, rpc_max_retries: int = 2
    ) -> None:
        super().__init__(injector)
        self.spill_root = spill_root
        self.rpc_max_retries = rpc_max_retries
        #: Fenced (slot, generation) pairs: map outputs written by these
        #: are zombie data — a worker declared dead may have flushed a
        #: spill file (and its reply may still be in flight) after the
        #: verdict. Commits from fenced generations are rejected.
        self._fenced: set[tuple[int, int]] = set()  # guarded-by: _lock
        self.stale_commits_rejected = 0  # guarded-by: _lock

    def map_writer(self, dep: ShuffleDependency) -> SpillMapWriter:
        return SpillMapWriter(
            self.spill_root, dep.shuffle_id, dep.partitioner, dep.aggregator,
            dep.map_side_combine,
        )

    def fetch(self, shuffle_id: int, reduce_index: int) -> Iterator[tuple[Any, Any]]:
        """Driver-side fetch (inline single-split reduce stages)."""
        retries = self.rpc_max_retries
        return drain(
            self._fetchable(shuffle_id, reduce_index),
            lambda status: read_bucket(status, reduce_index, retries),
        )

    def _refuses(self, status: MapStatus) -> bool:  # requires-lock: _lock
        # Driver-side writes (slot < 0, codec-fallback in-process map
        # tasks) can never be fenced; worker writes are checked against
        # the fence table so a zombie's output committed *after* its
        # verdict is rejected.
        if status.slot >= 0 and (status.slot, status.generation) in self._fenced:
            self.stale_commits_rejected += 1
            return True
        return False

    def note_fenced(self, slot: int, generation: int) -> None:
        """Record a fenced (slot, generation): any map output stamped
        with it — whether already committed or still riding a late
        reply — is zombie data and must never feed a reduce task."""
        with self._lock:
            self._fenced.add((slot, generation))
        self._invalidate(
            lambda status: status.slot == slot and status.generation == generation
        )

    def handle_worker_death(self, pid: int) -> int:
        """Invalidate everything a dead worker process produced."""
        return self._invalidate(lambda status: status.pid == pid)

    def export_plan(self) -> dict[int, dict[str, Any]]:
        """Fetch plan shipped in task envelopes: committed statuses per
        active shuffle (small metadata, never bucket data)."""
        with self._lock:
            return {
                shuffle_id: {
                    "num_maps": state.num_maps,
                    "statuses": dict(state.outputs),
                }
                for shuffle_id, state in self._shuffles.items()
            }

    def stats(self) -> dict[str, int]:
        with self._lock:
            stale = self.stale_commits_rejected
        return {**super().stats(), "stale_commits_rejected": stale}


class WorkerShuffleClient:
    """Worker-side fetch: resolves against the envelope's fetch plan.

    Single-threaded per worker process (one task at a time), so no
    locking; the plan is replaced at each task dispatch.
    """

    def __init__(self, rpc_max_retries: int = 2) -> None:
        self._plan: dict[int, dict[str, Any]] = {}
        self._rpc_max_retries = rpc_max_retries

    def install_plan(self, plan: dict[int, dict[str, Any]]) -> None:
        self._plan = plan

    def fetch(self, shuffle_id: int, reduce_index: int) -> Iterator[tuple[Any, Any]]:
        entry = self._plan.get(shuffle_id)
        if entry is None:
            raise FetchFailedError(
                shuffle_id, None, f"shuffle {shuffle_id}: no fetch plan shipped"
            )
        statuses_by_map: dict[int, MapStatus] = entry["statuses"]
        if len(statuses_by_map) < entry["num_maps"]:
            missing = entry["num_maps"] - len(statuses_by_map)
            raise FetchFailedError(
                shuffle_id,
                None,
                f"shuffle {shuffle_id} incomplete: {missing} map outputs missing",
            )
        statuses = [statuses_by_map[i] for i in sorted(statuses_by_map)]
        retries = self._rpc_max_retries
        return drain(
            statuses, lambda status: read_bucket(status, reduce_index, retries)
        )
