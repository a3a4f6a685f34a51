"""Resilient Distributed Datasets: lazy, partitioned collections.

This module implements the RDD programming model (Zaharia et al., NSDI
'12) that Spark SQL's physical operators — and the paper's Indexed
Row-Batch RDD — compile down to: an immutable, partitioned collection
with *narrow* dependencies (computed pipeline-fashion inside a stage)
and *shuffle* dependencies (stage boundaries handled by the
:class:`~repro.engine.scheduler.DAGScheduler`).

Transformations are lazy; actions (``collect``, ``count``, ...) submit
a job to the context's scheduler.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.engine.partitioner import HashPartitioner, Partitioner, portable_hash
from repro.engine.shuffle import Aggregator, ShuffleDependency
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext


class Dependency:
    """Edge in the RDD lineage graph."""

    def __init__(self, rdd: "RDD"):
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Each child partition depends on a bounded set of parent partitions."""

    def parents(self, partition: int) -> Sequence[int]:
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    """Child partition *i* depends exactly on parent partition *i*."""

    def parents(self, partition: int) -> Sequence[int]:
        return (partition,)


class RangeDependency(NarrowDependency):
    """Child partitions ``[out_start, out_start+length)`` map one-to-one
    onto parent partitions ``[in_start, in_start+length)`` (union)."""

    def __init__(self, rdd: "RDD", in_start: int, out_start: int, length: int):
        super().__init__(rdd)
        self.in_start = in_start
        self.out_start = out_start
        self.length = length

    def parents(self, partition: int) -> Sequence[int]:
        if self.out_start <= partition < self.out_start + self.length:
            return (partition - self.out_start + self.in_start,)
        return ()


class ShuffleDependencyEdge(Dependency):
    """Adapter exposing a :class:`ShuffleDependency` in the lineage graph."""

    def __init__(self, dep: ShuffleDependency):
        super().__init__(dep.rdd)
        self.shuffle = dep


#: Rows a count pulls per ``islice``: memory stays bounded while the
#: counting itself runs in C.
COUNT_CHUNK_ROWS = 4096


def _count(items: Iterable[Any]) -> int:
    """How many items there are, without a Python step per item."""
    it = iter(items)
    total = 0
    while True:
        n = len(list(itertools.islice(it, COUNT_CHUNK_ROWS)))
        total += n
        if n < COUNT_CHUNK_ROWS:
            return total


class RDD(ABC):
    """Base class for all RDDs.

    Subclasses define :attr:`num_partitions` and :meth:`compute`;
    everything else (transformations, actions, caching) is inherited.
    """

    _ids = itertools.count()

    def __init__(self, context: "EngineContext", dependencies: Sequence[Dependency]):
        self.rdd_id = next(RDD._ids)
        self.context = context
        self.dependencies = list(dependencies)
        self.partitioner: Partitioner | None = None
        self._cached = False
        # True when this RDD's semantics depend on the *identity* of
        # upstream partition indices (e.g. a function receiving the
        # partition index, or a fixed permutation). The scheduler skips
        # adaptive partition coalescing for any job containing one —
        # merging reduce buckets renumbers partitions.
        self._index_sensitive = False

    # ------------------------------------------------------------------
    # Core contract
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def num_partitions(self) -> int:
        """Number of partitions in this RDD."""

    @abstractmethod
    def compute(self, split: int) -> Iterator[Any]:
        """Compute partition ``split`` from scratch (no cache)."""

    def iterator(self, split: int) -> Iterator[Any]:
        """Cache-aware access to partition ``split``.

        If this RDD is marked cached, the block manager either returns
        the stored partition or computes, stores, and returns it.
        """
        if self._cached:
            block = self.context.block_manager.get_or_compute(
                (self.rdd_id, split), lambda: list(self.compute(split))
            )
            return iter(block)
        return self.compute(split)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def cache(self) -> "RDD":
        """Mark this RDD's partitions for in-memory caching."""
        self._cached = True
        return self

    def unpersist(self) -> "RDD":
        """Drop cached partitions and stop caching."""
        self._cached = False
        self.context.block_manager.remove_rdd(self.rdd_id)
        return self

    @property
    def is_cached(self) -> bool:
        return self._cached

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return MapPartitionsRDD(self, lambda _i, it: map(fn, it))

    def filter(self, fn: Callable[[Any], bool]) -> "RDD":
        rdd = MapPartitionsRDD(self, lambda _i, it: filter(fn, it))
        rdd.partitioner = self.partitioner  # filtering preserves layout
        return rdd

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "RDD":
        return MapPartitionsRDD(
            self, lambda _i, it: itertools.chain.from_iterable(map(fn, it))
        )

    def map_partitions(
        self, fn: Callable[[Iterator[Any]], Iterable[Any]], preserves_partitioning: bool = False
    ) -> "RDD":
        rdd = MapPartitionsRDD(self, lambda _i, it: fn(it))
        if preserves_partitioning:
            rdd.partitioner = self.partitioner
        return rdd

    def map_partitions_with_index(
        self, fn: Callable[[int, Iterator[Any]], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        rdd = MapPartitionsRDD(self, fn)
        if preserves_partitioning:
            rdd.partitioner = self.partitioner
        # The callback observes partition indices, so upstream reduce
        # partitions must keep their planned numbering.
        rdd._index_sensitive = True
        return rdd

    def glom(self) -> "RDD":
        """Collapse each partition into a single list element."""
        return MapPartitionsRDD(self, lambda _i, it: iter([list(it)]))

    def key_by(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda x: (fn(x), x))

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.context, [self, other])

    def zip_with_index(self) -> "RDD":
        """Pair each element with its global index (requires a count job
        per preceding partition, like Spark's ``zipWithIndex``)."""
        counts = self.map_partitions(lambda it: [sum(1 for _ in it)]).collect()
        offsets = [0]
        for c in counts[:-1]:
            offsets.append(offsets[-1] + c)

        def attach(i: int, it: Iterator[Any]) -> Iterator[Any]:
            return ((x, offsets[i] + j) for j, x in enumerate(it))

        return self.map_partitions_with_index(attach)

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Deterministic Bernoulli sample based on a per-element hash."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        threshold = int(fraction * (1 << 32))

        def keep(i: int, it: Iterator[Any]) -> Iterator[Any]:
            for j, x in enumerate(it):
                h = portable_hash((seed, i, j)) & 0xFFFFFFFF
                if h < threshold:
                    yield x

        return self.map_partitions_with_index(keep)

    # ------------------------------------------------------------------
    # Wide (shuffle) transformations
    # ------------------------------------------------------------------

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Shuffle ``(key, value)`` pairs according to ``partitioner``.

        A no-op when already partitioned exactly this way — the
        optimization that makes co-partitioned indexed joins cheap.
        """
        if self.partitioner == partitioner:
            return self
        shuffled = ShuffledRDD(self, partitioner)
        # An explicit partitioner is a placement contract — key k lives
        # at partition(k) — so adaptive coalescing must not renumber it.
        # Internal aggregation shuffles only promise co-location.
        shuffled.allow_coalesce = False
        return shuffled

    def group_by_key(self, num_partitions: int | None = None) -> "RDD":
        agg = Aggregator(
            create=lambda v: [v],
            merge=lambda acc, v: (acc.append(v) or acc),
            combine=lambda a, b: a + b,
        )
        return self._combine(agg, num_partitions, map_side_combine=False)

    def reduce_by_key(
        self, fn: Callable[[Any, Any], Any], num_partitions: int | None = None
    ) -> "RDD":
        agg = Aggregator(create=lambda v: v, merge=fn, combine=fn)
        return self._combine(agg, num_partitions, map_side_combine=True)

    def combine_by_key(
        self,
        create: Callable[[Any], Any],
        merge: Callable[[Any, Any], Any],
        combine: Callable[[Any, Any], Any],
        num_partitions: int | None = None,
        map_side_combine: bool = True,
    ) -> "RDD":
        agg = Aggregator(create=create, merge=merge, combine=combine)
        return self._combine(agg, num_partitions, map_side_combine)

    def _combine(
        self, agg: Aggregator, num_partitions: int | None, map_side_combine: bool
    ) -> "RDD":
        n = num_partitions or self.context.config.shuffle_partitions
        partitioner = HashPartitioner(n)
        if self.partitioner == partitioner:
            # Already co-partitioned: aggregate within each partition.
            def local(it: Iterator[tuple[Any, Any]]) -> Iterator[tuple[Any, Any]]:
                create, merge = agg.create, agg.merge
                _missing = object()
                acc: dict[Any, Any] = {}
                acc_get = acc.get
                for k, v in it:
                    prev = acc_get(k, _missing)
                    acc[k] = create(v) if prev is _missing else merge(prev, v)
                return iter(acc.items())

            return self.map_partitions(local, preserves_partitioning=True)
        return ShuffledRDD(self, partitioner, agg, map_side_combine)

    def cogroup(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Group both pair-RDDs by key: ``(k, (list_self, list_other))``."""
        n = num_partitions or self.context.config.shuffle_partitions
        left = self.map(lambda kv: (kv[0], (0, kv[1])))
        right = other.map(lambda kv: (kv[0], (1, kv[1])))
        tagged = left.union(right)
        agg = Aggregator(
            create=lambda tv: ([tv[1]], []) if tv[0] == 0 else ([], [tv[1]]),
            merge=lambda acc, tv: (
                (acc[0] + [tv[1]], acc[1]) if tv[0] == 0 else (acc[0], acc[1] + [tv[1]])
            ),
            combine=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        return tagged._combine(agg, n, map_side_combine=False)

    def join_pairs(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join of pair RDDs → ``(k, (v_self, v_other))``."""

        def emit(kv: tuple[Any, tuple[list, list]]) -> Iterator[Any]:
            k, (lefts, rights) = kv
            return ((k, (lv, rv)) for lv in lefts for rv in rights)

        return self.cogroup(other, num_partitions).flat_map(emit)

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .map(lambda kv: kv[0])
        )

    def sort_by(
        self,
        key_fn: Callable[[Any], Any],
        ascending: bool = True,
        num_partitions: int | None = None,
    ) -> "RDD":
        """Total sort via range partitioning + per-partition sort.

        The input is materialized once up front: sampling the key
        distribution and then shuffling must not recompute the (maybe
        expensive) upstream lineage twice.

        One input partition is already a single range: it is sorted in
        place, by a narrow transformation that starts no job (Spark's
        ``SinglePartition`` satisfies any ordered distribution).
        """
        from repro.engine.partitioner import RangePartitioner

        if self.num_partitions == 1:
            return self.map_partitions(
                lambda it: iter(sorted(it, key=key_fn, reverse=not ascending))
            )
        n = num_partitions or self.context.config.shuffle_partitions
        parts = self.context.run_job(self, list)
        data = ParallelCollectionRDD.from_partitions(self.context, parts)
        total = sum(len(p) for p in parts)
        sample_fraction = min(1.0, 1000.0 * n / max(1, total))
        sample = data.map(key_fn).sample(sample_fraction).collect()
        if not sample:
            sample = data.map(key_fn).take(1000)
        partitioner = RangePartitioner.from_sample(sample, n)
        keyed = data.map(lambda x: (key_fn(x), x))
        shuffled = ShuffledRDD(keyed, partitioner)

        def sort_part(it: Iterator[tuple[Any, Any]]) -> Iterator[Any]:
            rows = sorted(it, key=lambda kv: kv[0], reverse=not ascending)
            return (v for _k, v in rows)

        result = shuffled.map_partitions(sort_part)
        if not ascending:
            # Range partitioner orders partitions ascending; reverse them.
            m = result.num_partitions
            return ReorderedRDD(result, list(range(m - 1, -1, -1)))
        return result

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def collect(self) -> list[Any]:
        parts = self.context.run_job(self, lambda it: list(it))
        return [x for part in parts for x in part]

    def count(self) -> int:
        return sum(self.context.run_job(self, _count))

    def take(self, n: int) -> list[Any]:
        """Collect up to ``n`` elements, scanning partitions in order.

        The partition count is read again at each step: another job's
        shuffle may have coalesced this RDD meanwhile.
        """
        out: list[Any] = []
        split = 0
        while len(out) < n and split < self.num_partitions:
            part = self.context.run_job(
                self, lambda it: list(itertools.islice(it, n - len(out))), [split]
            )[0]
            out.extend(part)
            split += 1
        return out[:n]

    def first(self) -> Any:
        rows = self.take(1)
        if not rows:
            raise EngineError("first() on an empty RDD")
        return rows[0]

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        def reduce_part(it: Iterator[Any]) -> list[Any]:
            acc = None
            seen = False
            for x in it:
                acc = x if not seen else fn(acc, x)
                seen = True
            return [acc] if seen else []

        parts = [x for part in self.context.run_job(self, reduce_part) for x in part]
        if not parts:
            raise EngineError("reduce() on an empty RDD")
        acc = parts[0]
        for x in parts[1:]:
            acc = fn(acc, x)
        return acc

    def fold(self, zero: Any, fn: Callable[[Any, Any], Any]) -> Any:
        def fold_part(it: Iterator[Any]) -> Any:
            acc = zero
            for x in it:
                acc = fn(acc, x)
            return acc

        acc = zero
        for part in self.context.run_job(self, fold_part):
            acc = fn(acc, part)
        return acc

    def sum(self) -> Any:
        parts = self.context.run_job(self, lambda it: sum(it))
        return sum(parts)

    def foreach_partition(self, fn: Callable[[Iterator[Any]], None]) -> None:
        self.context.run_job(self, lambda it: fn(it))

    def count_by_key(self) -> dict[Any, int]:
        return dict(self.map(lambda kv: (kv[0], 1)).reduce_by_key(lambda a, b: a + b).collect())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.rdd_id}, partitions={self.num_partitions})"


class ParallelCollectionRDD(RDD):
    """An RDD materialized from a local Python sequence."""

    def __init__(self, context: "EngineContext", data: Sequence[Any], num_slices: int):
        super().__init__(context, [])
        if num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        self._slices = self._slice(list(data), num_slices)

    @classmethod
    def from_partitions(
        cls, context: "EngineContext", partitions: list[list[Any]]
    ) -> "ParallelCollectionRDD":
        """Wrap pre-partitioned data without re-slicing it."""
        rdd = cls(context, [], 1)
        rdd._slices = [list(p) for p in partitions] or [[]]
        return rdd

    @staticmethod
    def _slice(data: list[Any], num_slices: int) -> list[list[Any]]:
        n = len(data)
        slices = []
        for i in range(num_slices):
            start = (i * n) // num_slices
            end = ((i + 1) * n) // num_slices
            slices.append(data[start:end])
        return slices

    @property
    def num_partitions(self) -> int:
        return len(self._slices)

    def compute(self, split: int) -> Iterator[Any]:
        return iter(self._slices[split])


class MapPartitionsRDD(RDD):
    """Applies ``fn(partition_index, iterator)`` to each parent partition."""

    def __init__(self, parent: RDD, fn: Callable[[int, Iterator[Any]], Iterable[Any]]):
        super().__init__(parent.context, [OneToOneDependency(parent)])
        self._parent = parent
        self._fn = fn

    @property
    def num_partitions(self) -> int:
        return self._parent.num_partitions

    def compute(self, split: int) -> Iterator[Any]:
        return iter(self._fn(split, self._parent.iterator(split)))


class UnionRDD(RDD):
    """Concatenation of several RDDs' partitions."""

    def __init__(self, context: "EngineContext", rdds: Sequence[RDD]):
        deps: list[Dependency] = []
        out_start = 0
        for rdd in rdds:
            deps.append(RangeDependency(rdd, 0, out_start, rdd.num_partitions))
            out_start += rdd.num_partitions
        super().__init__(context, deps)
        self._rdds = list(rdds)

    @property
    def num_partitions(self) -> int:
        return sum(r.num_partitions for r in self._rdds)

    def compute(self, split: int) -> Iterator[Any]:
        for rdd in self._rdds:
            if split < rdd.num_partitions:
                return rdd.iterator(split)
            split -= rdd.num_partitions
        raise EngineError(f"partition {split} out of range for union")


class ReorderedRDD(RDD):
    """Presents the parent's partitions in a different order (used to
    implement descending total sorts)."""

    def __init__(self, parent: RDD, order: Sequence[int]):
        super().__init__(parent.context, [OneToOneDependency(parent)])
        if sorted(order) != list(range(parent.num_partitions)):
            raise EngineError("order must be a permutation of partition indices")
        self._parent = parent
        self._order = list(order)
        # The permutation is fixed at build time against the parent's
        # planned partition count — coalescing would invalidate it.
        self._index_sensitive = True

    @property
    def num_partitions(self) -> int:
        return self._parent.num_partitions

    def compute(self, split: int) -> Iterator[Any]:
        return self._parent.iterator(self._order[split])


class ShuffledRDD(RDD):
    """Reduce side of a shuffle: fetches buckets from the shuffle manager.

    When an aggregator is present and map-side combine is off, values are
    combined here on the reduce side.

    Adaptive execution may *coalesce* this RDD after the map stage has
    recorded bucket sizes: :meth:`set_coalesce_groups` merges adjacent
    reduce buckets into fewer partitions. Each key still lives in
    exactly one (coalesced) partition — whole buckets move together —
    so keyed aggregation and cogroup stay correct; only partition
    *numbering* changes, which is why index-sensitive jobs opt out.
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Aggregator | None = None,
        map_side_combine: bool = False,
    ):
        dep = ShuffleDependency(parent, partitioner, aggregator, map_side_combine)
        super().__init__(parent.context, [ShuffleDependencyEdge(dep)])
        self.shuffle_dep = dep
        self.partitioner = partitioner
        #: Post-map coalescing plan: partition ``i`` reads the original
        #: reduce buckets ``_reduce_groups[i]``. ``None`` = uncoalesced.
        self._reduce_groups: list[list[int]] | None = None
        #: Cleared by the scheduler to veto coalescing for this shuffle.
        self.allow_coalesce = True

    def set_coalesce_groups(self, groups: Sequence[Sequence[int]]) -> None:
        """Adopt a coalescing plan (scheduler-only; sticky once set).

        The original partitioner no longer describes the physical
        layout, so it is dropped — later graph construction must not
        elide shuffles against the pre-coalesce partitioning.
        """
        expected = sorted(i for group in groups for i in group)
        if expected != list(range(self.shuffle_dep.partitioner.num_partitions)):
            raise EngineError("coalesce groups must cover every reduce bucket once")
        self._reduce_groups = [list(g) for g in groups]
        self.partitioner = None

    @property
    def num_partitions(self) -> int:
        if self._reduce_groups is not None:
            return len(self._reduce_groups)
        return self.shuffle_dep.partitioner.num_partitions

    def _fetch(self, split: int) -> Iterator[Any]:
        fetch = self.context.shuffle_manager.fetch
        shuffle_id = self.shuffle_dep.shuffle_id
        if self._reduce_groups is None:
            return fetch(shuffle_id, split)
        buckets = self._reduce_groups[split]
        if len(buckets) == 1:
            return fetch(shuffle_id, buckets[0])
        return itertools.chain.from_iterable(fetch(shuffle_id, b) for b in buckets)

    def compute(self, split: int) -> Iterator[Any]:
        records = self._fetch(split)
        agg = self.shuffle_dep.aggregator
        if agg is None:
            return records
        # Hot loops: one iteration per fetched record, so the aggregator
        # callables and dict probe are hoisted to local names. Merged
        # buckets hold disjoint key sets, so one pass over the chained
        # records aggregates each exactly as the separate buckets would.
        _missing = object()
        acc: dict[Any, Any] = {}
        acc_get = acc.get
        if self.shuffle_dep.map_side_combine:
            # Map outputs are already accumulators; merge them.
            combine = agg.combine
            for k, v in records:
                prev = acc_get(k, _missing)
                acc[k] = v if prev is _missing else combine(prev, v)
            return iter(acc.items())
        create, merge = agg.create, agg.merge
        for k, v in records:
            prev = acc_get(k, _missing)
            acc[k] = create(v) if prev is _missing else merge(prev, v)
        return iter(acc.items())
