"""Shuffle: one map-output registry over two media.

A :class:`ShuffleDependency` marks a stage boundary. Each map task
partitions its key-value output into ``num_partitions`` buckets
(:func:`bucketize`) and its writer returns a *map output*; the
scheduler commits a stage's outputs here, and reduce tasks fetch the
bucket with their index from every output.

An output carries its ``map_index`` and per-bucket ``(rows,
est_bytes)`` sizes and knows how to drop itself: a
:class:`MemoryMapOutput` holds bucket lists and drops nothing, the
process backend's ``MapStatus`` unlinks its spill file. Every output
the registry does not keep — refused, a duplicate of a map index
already committed, lost, removed with its shuffle, or never committed
because its stage failed — leaves through :meth:`ShuffleManager.discard`.

Concurrent jobs may run the same map stage. The first output committed
for a map index is the one kept, and the commit that first completes a
shuffle runs its ``on_complete`` callback under the registry lock, so a
coalescing plan is fixed before any fetch can see the shuffle complete.

Fault model: a fetch that finds map outputs missing — whether lost to
the seeded injector (which drops a victim output to simulate a died
executor) or simply never produced — raises
:class:`~repro.errors.FetchFailedError`. The scheduler reacts with
lineage recomputation: :meth:`ShuffleManager.missing_map_indices` names
exactly the map tasks to re-run.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.engine.cache import estimate_size
from repro.engine.partitioner import Partitioner
from repro.engine.query import check_cancelled, current_query
from repro.errors import EngineError, FetchFailedError
from repro.faults import NULL_INJECTOR, FaultInjector


@dataclass
class Aggregator:
    """Optional map-side combine, as in ``reduceByKey``.

    ``create`` builds an accumulator from the first value, ``merge``
    folds another value in, and ``combine`` merges two accumulators on
    the reduce side.
    """

    create: Callable[[Any], Any]
    merge: Callable[[Any, Any], Any]
    combine: Callable[[Any, Any], Any]


class ShuffleDependency:
    """Wide dependency on ``rdd``, partitioned by ``partitioner``.

    The parent RDD must produce ``(key, value)`` pairs.
    """

    _ids = itertools.count()

    def __init__(
        self,
        rdd: "Any",
        partitioner: Partitioner,
        aggregator: Aggregator | None = None,
        map_side_combine: bool = False,
    ):
        if map_side_combine and aggregator is None:
            raise EngineError("map_side_combine requires an aggregator")
        self.shuffle_id = next(ShuffleDependency._ids)
        self.rdd = rdd
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine


@dataclass
class _ShuffleState:
    """One shuffle's committed map outputs, keyed by map index."""

    num_maps: int
    outputs: dict[int, Any] = field(default_factory=dict)
    #: Whether the shuffle has been complete once (its plan is fixed).
    completed: bool = False

    def complete(self) -> bool:
        return len(self.outputs) == self.num_maps


@dataclass(frozen=True)
class MemoryMapOutput:
    """One map task's buckets, held in process memory."""

    map_index: int
    buckets: list[list[Any]]
    #: Per reduce bucket: (rows, est_bytes) — adaptive planning input.
    sizes: tuple[tuple[int, int], ...]

    def drop(self) -> None:
        """Nothing to release: the buckets go with the last reference."""


def _bucket_size(bucket: list[Any]) -> tuple[int, int]:
    """``(rows, est_bytes)`` for one reduce bucket.

    Bytes are estimated from the first record (deep-sized) times the
    bucket length — adaptive coalescing needs relative magnitudes, not
    exact accounting, and sizing every record would put an O(fields)
    walk on the shuffle write path.
    """
    rows = len(bucket)
    if rows == 0:
        return 0, 0
    return rows, rows * max(1, estimate_size(bucket[0]))


def bucketize(
    partitioner: Partitioner,
    aggregator: Aggregator | None,
    map_side_combine: bool,
    records: Iterable[tuple[Any, Any]],
) -> tuple[list[list[Any]], tuple[tuple[int, int], ...]]:
    """Partition one map task's records into reduce buckets; returns the
    buckets and their sizes. Both media write what this returns.

    Both loops run once per record of the map task — the attribute
    lookups (partition function, bucket appends, aggregator callables)
    are hoisted out so the loop body is pure local-name dispatch.
    """
    n = partitioner.num_partitions
    partition_of = partitioner.partition
    buckets: list[list[Any]] = [[] for _ in range(n)]
    if map_side_combine and aggregator is not None:
        agg_create, agg_merge = aggregator.create, aggregator.merge
        combined: list[dict[Any, Any]] = [dict() for _ in range(n)]
        _missing = object()
        for key, value in records:  # lint: allow[CP001] -- hot per-record map loop; the cancellation poll sits at stage granularity
            bucket = combined[partition_of(key)]
            acc = bucket.get(key, _missing)
            bucket[key] = (
                agg_create(value) if acc is _missing else agg_merge(acc, value)
            )
        for i, bucket in enumerate(combined):
            buckets[i] = list(bucket.items())
    else:
        appends = [bucket.append for bucket in buckets]
        for key, value in records:  # lint: allow[CP001] -- hot per-record map loop; the cancellation poll sits at stage granularity
            appends[partition_of(key)]((key, value))
    return buckets, tuple(_bucket_size(bucket) for bucket in buckets)


def drain(outputs: list[Any], read: Callable[[Any], list[Any]]) -> Iterator[Any]:
    """The records of one reduce partition, map output by map output;
    ``read(output)`` loads that output's bucket."""
    for output in outputs:
        # Cooperative cancellation poll once per map bucket: a
        # cancelled query stops fetching instead of draining every
        # remaining bucket through the reduce task.
        check_cancelled()
        yield from read(output)


class ShuffleManager:
    """Registry of map outputs keyed by shuffle id, with in-memory
    buckets as its medium.

    Thread-safe: fetches, commits and invalidations may race.
    """

    def __init__(self, injector: FaultInjector | None = None) -> None:
        self._lock = threading.Lock()
        self._shuffles: dict[int, _ShuffleState] = {}  # guarded-by: _lock
        self._injector = injector or NULL_INJECTOR
        self.lost_map_outputs = 0  # guarded-by: _lock

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> bool:
        """Declare a shuffle before its map stage runs (idempotent);
        True when this call registered it."""
        with self._lock:
            if shuffle_id in self._shuffles:
                return False
            self._shuffles[shuffle_id] = _ShuffleState(num_maps=num_maps)
            return True

    def is_complete(self, shuffle_id: int) -> bool:
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            return state is not None and state.complete()

    def map_writer(
        self, dep: ShuffleDependency
    ) -> Callable[[int, Iterable[tuple[Any, Any]]], Any]:
        """The callable a map task runs to write its output; what it
        returns goes to :meth:`commit_map_outputs` after the stage."""

        def write(map_index: int, records: Iterable[tuple[Any, Any]]) -> Any:
            return self.write_map_output(dep, map_index, records)

        return write

    def write_map_output(
        self,
        dep: ShuffleDependency,
        map_index: int,
        records: Iterable[tuple[Any, Any]],
    ) -> MemoryMapOutput:
        """Bucket one map task's records in memory."""
        buckets, sizes = bucketize(
            dep.partitioner, dep.aggregator, dep.map_side_combine, records
        )
        query = current_query()
        if query is not None and query.governor is not None:
            # Charge the shuffle write against the serving memory
            # budgets before the buckets become reachable: a kill
            # decision then unwinds before the output is committed.
            query.governor.charge(query, sum(est for _rows, est in sizes))
        return MemoryMapOutput(map_index, buckets, sizes)

    def commit_map_outputs(
        self,
        shuffle_id: int,
        outputs: list[Any],
        num_maps: int | None = None,
        on_complete: Callable[[list[tuple[int, int]]], None] | None = None,
    ) -> None:
        """Register a map stage's outputs; those the registry refuses
        and duplicates of a committed map index are dropped.

        ``num_maps`` re-registers a shuffle that a cancelled job removed
        while this stage ran. ``on_complete(reduce_sizes)`` runs under
        the lock if this commit is the first to complete the shuffle.
        """
        refused: list[Any] = []
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            if state is None and num_maps is not None:
                state = self._shuffles[shuffle_id] = _ShuffleState(num_maps)
            if state is not None:
                for output in outputs:
                    if self._refuses(output) or output.map_index in state.outputs:
                        refused.append(output)
                    else:
                        state.outputs[output.map_index] = output
                if not state.completed and state.complete():
                    state.completed = True
                    if on_complete is not None:
                        on_complete(self._reduce_sizes(state))
        if state is None:
            self.discard(outputs)
            raise EngineError(f"shuffle {shuffle_id} was never registered")
        self.discard(refused)

    def _refuses(self, output: Any) -> bool:  # requires-lock: _lock
        """Whether a committed output must be dropped instead of kept."""
        return False

    def discard(self, outputs: Iterable[Any]) -> None:
        """The drop path for map outputs the registry does not keep."""
        for output in outputs:
            output.drop()

    def fetch(self, shuffle_id: int, reduce_index: int) -> Iterator[tuple[Any, Any]]:
        """All records destined for ``reduce_index``.

        Validates eagerly (so missing outputs fail at call time, inside
        the fetching task) and returns an iterator over the buckets.
        """
        return drain(
            self._fetchable(shuffle_id, reduce_index),
            lambda output: output.buckets[reduce_index],
        )

    def _fetchable(self, shuffle_id: int, reduce_index: int) -> list[Any]:
        """The committed outputs a fetch drains, in map order; raises
        :class:`FetchFailedError` while any is missing."""
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            if state is None:
                raise EngineError(f"shuffle {shuffle_id} was never registered")
            if not state.complete():
                missing = state.num_maps - len(state.outputs)
                raise FetchFailedError(
                    shuffle_id,
                    None,
                    f"shuffle {shuffle_id} incomplete: {missing} map outputs missing",
                )
            if not self._injector.should_fire("shuffle.fetch", reduce_index):
                return [state.outputs[i] for i in sorted(state.outputs)]
            # Simulate a died executor: one map output vanishes and
            # this fetch fails; the scheduler must recompute it.
            victim = self._injector.choose(
                "shuffle.fetch", sorted(state.outputs), reduce_index
            )
            lost = state.outputs.pop(victim)
            self.lost_map_outputs += 1
        lost.drop()
        raise FetchFailedError(
            shuffle_id,
            victim,
            f"shuffle {shuffle_id}: map output {victim} lost (injected)",
        )

    def reduce_sizes(self, shuffle_id: int) -> list[tuple[int, int]] | None:
        """Per-reduce-partition ``(rows, est_bytes)`` totals across maps.

        ``None`` until every map output has been committed — adaptive
        decisions only make sense over the complete picture.
        """
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            if state is None or not state.complete():
                return None
            return self._reduce_sizes(state)

    @staticmethod
    def _reduce_sizes(state: _ShuffleState) -> list[tuple[int, int]]:
        """Per-reduce-bucket ``(rows, est_bytes)`` summed over the outputs."""
        per_map = [output.sizes for output in state.outputs.values()]
        return [tuple(map(sum, zip(*bucket))) for bucket in zip(*per_map)]

    def missing_map_indices(self, shuffle_id: int) -> list[int]:
        """Map indices whose output is absent (lineage-recompute set)."""
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            if state is None:
                return []
            return [i for i in range(state.num_maps) if i not in state.outputs]

    def remove_shuffle(self, shuffle_id: int, only_incomplete: bool = False) -> None:
        """Drop all map outputs for a shuffle (GC after a job); with
        ``only_incomplete``, only if it is incomplete (a cancelled job)."""
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            if state is None or (only_incomplete and state.complete()):
                return
            del self._shuffles[shuffle_id]
        self.discard(state.outputs.values())

    def _invalidate(self, doomed: Callable[[Any], bool]) -> int:
        """Drop every committed output ``doomed`` selects — outputs lost
        with the executor that wrote them; returns how many."""
        lost: list[Any] = []
        with self._lock:
            for state in self._shuffles.values():
                for map_index in [i for i, o in state.outputs.items() if doomed(o)]:
                    lost.append(state.outputs.pop(map_index))
            self.lost_map_outputs += len(lost)
        self.discard(lost)
        return len(lost)

    def stats(self) -> dict[str, int]:
        """Counters for tests and the benchmark harness."""
        with self._lock:
            records = sum(
                rows
                for state in self._shuffles.values()
                for output in state.outputs.values()
                for rows, _est in output.sizes
            )
            return {"shuffles": len(self._shuffles), "records": records}
