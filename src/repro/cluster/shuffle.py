"""Cluster shuffle: spill-file map-output registry + worker fetch client.

:class:`ClusterShuffleManager` is the driver-side coordinator half —
the same registry surface the scheduler already speaks
(``register_shuffle`` / ``reduce_sizes`` / ``missing_map_indices`` /
``fetch``), but outputs are :class:`~repro.cluster.spill.MapStatus`
records pointing at spill files instead of in-memory buckets.
:class:`WorkerShuffleClient` is the worker half: it resolves fetches
against the fetch plan shipped in each task envelope.

Dead workers lose their map outputs (statuses invalidated, files
deleted), so the next fetch raises
:class:`~repro.errors.FetchFailedError` and the scheduler's lineage
machinery recomputes exactly the missing maps — the promotion of the
PR 1 fault model to real process death.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.cluster.spill import MapStatus, SpillMapWriter, read_bucket
from repro.engine.shuffle import ShuffleDependency, ShuffleManager
from repro.errors import EngineError, FetchFailedError
from repro.serving.context import check_cancelled


@dataclass
class _ClusterShuffleState:
    num_maps: int
    statuses: dict[int, MapStatus] = field(default_factory=dict)

    def complete(self) -> bool:
        return len(self.statuses) == self.num_maps


class ClusterShuffleManager(ShuffleManager):
    """Spill-file map-output registry for the process backend."""

    def __init__(
        self, spill_root: str, injector=None, rpc_max_retries: int = 2
    ) -> None:
        super().__init__(injector)
        self.spill_root = spill_root
        self.rpc_max_retries = rpc_max_retries
        self._states: dict[int, _ClusterShuffleState] = {}  # guarded-by: _lock
        #: Fenced (slot, generation) pairs: map outputs written by these
        #: are zombie data — a worker declared dead may have flushed a
        #: spill file (and its reply may still be in flight) after the
        #: verdict. Commits from fenced generations are rejected.
        self._fenced: set[tuple[int, int]] = set()  # guarded-by: _lock
        self.stale_commits_rejected = 0  # guarded-by: _lock

    # -- registry surface (scheduler-facing) ---------------------------

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> bool:
        with self._lock:
            if shuffle_id in self._states:
                return False
            self._states[shuffle_id] = _ClusterShuffleState(num_maps=num_maps)
            return True

    def is_complete(self, shuffle_id: int) -> bool:
        with self._lock:
            state = self._states.get(shuffle_id)
            return state is not None and state.complete()

    def map_writer(self, dep: ShuffleDependency) -> SpillMapWriter:
        return SpillMapWriter(
            root=self.spill_root,
            shuffle_id=dep.shuffle_id,
            partitioner=dep.partitioner,
            aggregator=dep.aggregator,
            map_side_combine=dep.map_side_combine,
        )

    def note_fenced(self, slot: int, generation: int) -> None:
        """Record a fenced (slot, generation): any map output stamped
        with it — whether already committed or still riding a late
        reply — is zombie data and must never feed a reduce task."""
        doomed: list[MapStatus] = []
        with self._lock:
            self._fenced.add((slot, generation))
            for state in self._states.values():
                victims = [
                    i
                    for i, s in state.statuses.items()
                    if s.slot == slot and s.generation == generation
                ]
                for i in victims:
                    doomed.append(state.statuses.pop(i))
                self.lost_map_outputs += len(victims)
        for status in doomed:
            _unlink_quiet(status.path)

    def commit_map_outputs(
        self, shuffle_id: int, statuses: list[MapStatus | None]
    ) -> None:
        stale: list[MapStatus] = []
        with self._lock:
            state = self._states.get(shuffle_id)
            if state is None:
                raise EngineError(f"shuffle {shuffle_id} was never registered")
            for status in statuses:
                if status is None:
                    continue
                # Driver-side writes (slot < 0, codec-fallback in-process
                # map tasks) can never be fenced; worker writes are
                # checked against the fence table so a zombie's output
                # committed *after* its verdict is rejected.
                if status.slot >= 0 and (status.slot, status.generation) in self._fenced:
                    self.stale_commits_rejected += 1
                    stale.append(status)
                    continue
                state.statuses[status.map_index] = status
        for status in stale:
            _unlink_quiet(status.path)

    def fetch(self, shuffle_id: int, reduce_index: int) -> Iterator[tuple[Any, Any]]:
        """Driver-side fetch (inline single-split reduce stages)."""
        with self._lock:
            state = self._states.get(shuffle_id)
            if state is None:
                raise EngineError(f"shuffle {shuffle_id} was never registered")
            if state.complete() and self._injector.should_fire(
                "shuffle.fetch", reduce_index
            ):
                victim = self._injector.choose(
                    "shuffle.fetch", sorted(state.statuses), reduce_index
                )
                self._invalidate_locked(state, victim)
                raise FetchFailedError(
                    shuffle_id,
                    victim,
                    f"shuffle {shuffle_id}: map output {victim} lost (injected)",
                )
            if not state.complete():
                missing = state.num_maps - len(state.statuses)
                raise FetchFailedError(
                    shuffle_id,
                    None,
                    f"shuffle {shuffle_id} incomplete: {missing} map outputs missing",
                )
            statuses = [state.statuses[i] for i in sorted(state.statuses)]
        return _drain(statuses, reduce_index, self.rpc_max_retries)

    def reduce_sizes(self, shuffle_id: int) -> list[tuple[int, int]] | None:
        with self._lock:
            state = self._states.get(shuffle_id)
            if state is None or not state.complete():
                return None
            totals: list[tuple[int, int]] | None = None
            for status in state.statuses.values():
                if totals is None:
                    totals = list(status.sizes)
                else:
                    totals = [
                        (r + br, b + bb)
                        for (r, b), (br, bb) in zip(totals, status.sizes)
                    ]
            return totals

    def missing_map_indices(self, shuffle_id: int) -> list[int]:
        with self._lock:
            state = self._states.get(shuffle_id)
            if state is None:
                return []
            return [i for i in range(state.num_maps) if i not in state.statuses]

    def remove_shuffle(self, shuffle_id: int) -> None:
        with self._lock:
            state = self._states.pop(shuffle_id, None)
            if state is None:
                return
            paths = [status.path for status in state.statuses.values()]
        for path in paths:
            _unlink_quiet(path)

    def stats(self) -> dict[str, int]:
        with self._lock:
            records = sum(
                rows
                for state in self._states.values()
                for status in state.statuses.values()
                for rows, _est in status.sizes
            )
            return {
                "shuffles": len(self._states),
                "records": records,
                "stale_commits_rejected": self.stale_commits_rejected,
            }

    # -- cluster-only surface ------------------------------------------

    def export_plan(self) -> dict[int, dict[str, Any]]:
        """Fetch plan shipped in task envelopes: committed statuses per
        active shuffle (small metadata, never bucket data)."""
        with self._lock:
            return {
                shuffle_id: {
                    "num_maps": state.num_maps,
                    "statuses": dict(state.statuses),
                }
                for shuffle_id, state in self._states.items()
            }

    def handle_worker_death(self, pid: int) -> int:
        """Invalidate everything a dead worker process produced."""
        doomed: list[MapStatus] = []
        with self._lock:
            for state in self._states.values():
                victims = [
                    i for i, s in state.statuses.items() if s.pid == pid
                ]
                for i in victims:
                    doomed.append(state.statuses.pop(i))
                self.lost_map_outputs += len(victims)
        for status in doomed:
            _unlink_quiet(status.path)
        return len(doomed)

    def _invalidate_locked(  # requires-lock: _lock
        self, state: _ClusterShuffleState, map_index: int
    ) -> None:
        status = state.statuses.pop(map_index, None)
        self.lost_map_outputs += 1
        if status is not None:
            _unlink_quiet(status.path)


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
        return _drain(statuses, reduce_index, self._rpc_max_retries)


def _drain(
    statuses: list[MapStatus], reduce_index: int, max_retries: int = 2
) -> Iterator[tuple[Any, Any]]:
    for status in statuses:
        # Cooperative cancellation poll once per map bucket, matching
        # the in-memory manager's drain loop.
        check_cancelled()
        yield from read_bucket(status, reduce_index, max_retries)


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
