"""In-memory shuffle: map-output registry and fetch API.

A :class:`ShuffleDependency` marks a stage boundary. During the map
stage each map task partitions its key-value output into
``num_partitions`` buckets and registers them here; reduce tasks fetch
the bucket with their index from every map output. This mirrors Spark's
hash shuffle with all blocks held in process memory.

Fault model: a fetch that finds map outputs missing — whether lost to
the seeded injector (which deletes a victim output to simulate a died
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
from repro.errors import EngineError, FetchFailedError
from repro.faults import NULL_INJECTOR, FaultInjector
from repro.serving.context import check_cancelled, current_query


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
    """Map outputs for one shuffle: ``outputs[map_idx][reduce_idx]``.

    ``sizes[map_idx][reduce_idx]`` records ``(rows, est_bytes)`` per
    bucket — the map-output statistics adaptive execution plans from.
    """

    num_maps: int
    outputs: dict[int, list[list[Any]]] = field(default_factory=dict)
    sizes: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    def complete(self) -> bool:
        return len(self.outputs) == self.num_maps


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


class ShuffleManager:
    """Registry of map outputs keyed by shuffle id.

    Thread-safe: map tasks from one stage register concurrently.
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
        """A callable the map task runs to persist its output.

        The in-memory manager writes straight into the registry and
        returns nothing; the cluster manager overrides this with a
        picklable spill-file writer returning a ``MapStatus`` that the
        scheduler hands to :meth:`commit_map_outputs` after the stage.
        """

        def write(map_index: int, records: Iterable[tuple[Any, Any]]) -> None:
            self.write_map_output(dep, map_index, records)

        return write

    def commit_map_outputs(self, shuffle_id: int, statuses: list[Any]) -> None:
        """Commit per-map writer results after a map stage (no-op here:
        :meth:`write_map_output` already registered the buckets)."""

    def write_map_output(
        self,
        dep: ShuffleDependency,
        map_index: int,
        records: Iterable[tuple[Any, Any]],
    ) -> None:
        """Partition one map task's records into reduce buckets.

        Both loops run once per record of the map task — the attribute
        lookups (partition function, bucket appends, aggregator
        callables) are hoisted out so the loop body is pure local-name
        dispatch.
        """
        n = dep.partitioner.num_partitions
        partition_of = dep.partitioner.partition
        buckets: list[list[Any]] = [[] for _ in range(n)]
        if dep.map_side_combine and dep.aggregator is not None:
            agg = dep.aggregator
            agg_create, agg_merge = agg.create, agg.merge
            combined: list[dict[Any, Any]] = [dict() for _ in range(n)]
            _missing = object()
            for key, value in records:  # lint: allow[CP001] -- hot per-record map loop; PR 6 put the poll at stage granularity
                bucket = combined[partition_of(key)]
                acc = bucket.get(key, _missing)
                bucket[key] = (
                    agg_create(value) if acc is _missing else agg_merge(acc, value)
                )
            for i, bucket in enumerate(combined):
                buckets[i] = list(bucket.items())
        else:
            appends = [bucket.append for bucket in buckets]
            for key, value in records:  # lint: allow[CP001] -- hot per-record map loop; PR 6 put the poll at stage granularity
                appends[partition_of(key)]((key, value))
        sizes = [_bucket_size(bucket) for bucket in buckets]
        query = current_query()
        if query is not None and query.governor is not None:
            # Charge the shuffle write against the serving memory
            # budgets before the buckets become reachable: a kill
            # decision then unwinds before the state is registered.
            query.governor.charge(query, sum(est for _rows, est in sizes))
        with self._lock:
            state = self._shuffles.get(dep.shuffle_id)
            if state is None:
                raise EngineError(f"shuffle {dep.shuffle_id} was never registered")
            state.outputs[map_index] = buckets
            state.sizes[map_index] = sizes

    def fetch(self, shuffle_id: int, reduce_index: int) -> Iterator[tuple[Any, Any]]:
        """All records destined for ``reduce_index``.

        Validates eagerly (so missing outputs fail at call time, inside
        the fetching task) and returns an iterator over the buckets.
        """
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            if state is None:
                raise EngineError(f"shuffle {shuffle_id} was never registered")
            if state.complete() and self._injector.should_fire(
                "shuffle.fetch", reduce_index
            ):
                # Simulate a died executor: one map output vanishes and
                # this fetch fails; the scheduler must recompute it.
                victim = self._injector.choose(
                    "shuffle.fetch", sorted(state.outputs), reduce_index
                )
                del state.outputs[victim]
                self.lost_map_outputs += 1
                raise FetchFailedError(
                    shuffle_id,
                    victim,
                    f"shuffle {shuffle_id}: map output {victim} lost (injected)",
                )
            if not state.complete():
                missing = state.num_maps - len(state.outputs)
                raise FetchFailedError(
                    shuffle_id,
                    None,
                    f"shuffle {shuffle_id} incomplete: {missing} map outputs missing",
                )
            outputs = [state.outputs[i][reduce_index] for i in sorted(state.outputs)]

        def drain() -> Iterator[tuple[Any, Any]]:
            for bucket in outputs:
                # Cooperative cancellation poll once per map bucket: a
                # cancelled query stops fetching instead of draining
                # every remaining bucket through the reduce task.
                check_cancelled()
                yield from bucket

        return drain()

    def reduce_sizes(self, shuffle_id: int) -> list[tuple[int, int]] | None:
        """Per-reduce-partition ``(rows, est_bytes)`` totals across maps.

        ``None`` until every map output has been registered — adaptive
        decisions only make sense over the complete picture.
        """
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            if state is None or not state.complete():
                return None
            totals: list[tuple[int, int]] | None = None
            for map_index in state.outputs:
                sizes = state.sizes.get(map_index)
                if sizes is None:
                    return None
                if totals is None:
                    totals = list(sizes)
                else:
                    totals = [
                        (r + br, b + bb)
                        for (r, b), (br, bb) in zip(totals, sizes)
                    ]
            return totals

    def missing_map_indices(self, shuffle_id: int) -> list[int]:
        """Map indices whose output is absent (lineage-recompute set)."""
        with self._lock:
            state = self._shuffles.get(shuffle_id)
            if state is None:
                return []
            return [i for i in range(state.num_maps) if i not in state.outputs]

    def remove_shuffle(self, shuffle_id: int) -> None:
        """Drop all map outputs for a shuffle (GC after a job)."""
        with self._lock:
            self._shuffles.pop(shuffle_id, None)

    def stats(self) -> dict[str, int]:
        """Counters for tests and the benchmark harness."""
        with self._lock:
            records = sum(
                len(bucket)
                for state in self._shuffles.values()
                for buckets in state.outputs.values()
                for bucket in buckets
            )
            return {"shuffles": len(self._shuffles), "records": records}
