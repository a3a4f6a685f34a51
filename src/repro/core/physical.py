"""Indexed physical operators (paper Figure 1, "Indexed Execution").

* :class:`IndexedScanExec` — full or column-pruned decode of the row
  batches (the ``transformToRowRDD`` fallback);
* :class:`IndexLookupExec` — cTrie point lookup(s) for equality
  filters and ``getRows``;
* :class:`IndexedJoinExec` — the indexed equi-join: the index is the
  pre-built build side; the probe side is shuffled to the index's hash
  partitions, or streamed directly when small (the broadcast fallback
  of paper §2, "Indexed Join");
* :class:`BitmapScanExec` / :class:`BitmapIndexAndExec` — row fetch
  driven by one bitmap-index predicate, or by an AND/OR program over
  several, evaluated at plan time;
* :class:`GuardedIndexExec` — graceful degradation: runs an indexed
  operator and, if it fails at execution time (index corruption, an
  injected probe fault, retries exhausted), re-executes the query
  through the equivalent *vanilla* physical plan instead of aborting —
  paper Figure 1's dual execution paths made a runtime guarantee.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterator, Sequence

from repro import codegen
from repro.core.indexed_rdd import IndexedRowBatchRDD, IndexLookupRDD
from repro.core.mvcc import Version
from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner, bucket_keys
from repro.engine.query import check_cancelled
from repro.engine.rdd import RDD
from repro.errors import ReproError
from repro.index.bitmap import iter_bits
from repro.sql.expressions import Attribute, Expression
from repro.sql.physical import PhysicalPlan, bind_expression
from repro.sql.pruning import extract_pruning_predicates


class IndexedScanExec(PhysicalPlan):
    """Scan of an Indexed DataFrame version, optionally pruned.

    Pruned or not, a row store must walk every stored row — which is
    why Figure 2 shows projection *slower* than the columnar cache.
    """

    PARTITIONING = "source"

    def __init__(
        self,
        ctx: EngineContext,
        version: Version,
        output: Sequence[Attribute],
        columns: Sequence[int] | None = None,
    ):
        super().__init__(ctx, output)
        self.version = version
        self.columns = list(columns) if columns is not None else None
        self._keep: list[int] | None = None
        self._batch_keep: dict[int, frozenset[int]] | None = None
        self._pruned = 0
        self._routed = False
        self._batches_pruned = 0
        self._index_rejected: str | None = None

    def mark_index_rejected(self, reason: str) -> None:
        """The planner costed a bitmap-index plan here and this scan
        won; recorded so EXPLAIN shows the decision (the metrics-side
        counterpart is ``PruningMetrics.record_index_rejected``)."""
        self._index_rejected = reason

    def apply_pruning(self, condition: Expression) -> None:
        """Skip partitions and row batches the filter cannot match.

        Two statistics cooperate (both sound — the filter above still
        re-checks every surviving row):

        * **hash routing** — an equality/IN conjunct on the indexed
          column names the only hash partitions its keys can live in,
          via the same :func:`bucket_keys` routing appends use;
        * **zone maps** — the per-partition and per-batch min/max
          summaries maintained under the append lock, frozen per MVCC
          snapshot, skip zones whose ranges exclude the predicates.
        """
        predicates = extract_pruning_predicates(condition, self.output)
        if not predicates:
            return
        if self.columns is not None:
            cols = self.columns
            predicates = [p.with_ordinal(cols[p.ordinal]) for p in predicates]
        snapshots = self.version.snapshots
        n = len(snapshots)
        if n == 0:
            return

        key_ordinal = snapshots[0].partition.key_ordinal
        routed: set[int] | None = None
        for pred in predicates:
            if pred.ordinal == key_ordinal and pred.op in ("eq", "in"):
                buckets = bucket_keys(pred.values, HashPartitioner(n))
                hit = {i for i, bucket in enumerate(buckets) if bucket}
                routed = hit if routed is None else routed & hit
        self._routed = routed is not None
        candidates = sorted(routed) if routed is not None else range(n)

        keep: list[int] = []
        batch_keep: dict[int, frozenset[int]] = {}
        batches_total = batches_pruned = 0
        for i in candidates:
            snap = snapshots[i]
            zone_count = len(snap.batch_zones)
            batches_total += zone_count
            if not snap.may_match(predicates):
                batches_pruned += zone_count
                continue
            matching = snap.matching_batches(predicates)
            if matching is not None and len(matching) < zone_count:
                batches_pruned += zone_count - len(matching)
                if not matching:
                    continue
                batch_keep[i] = matching
            keep.append(i)

        self._pruned = n - len(keep)
        self._batches_pruned = batches_pruned
        if self._pruned:
            self._keep = keep
        if batch_keep:
            self._batch_keep = batch_keep
        self.ctx.pruning_metrics.record_scan(
            partitions_total=n,
            partitions_pruned=self._pruned,
            batches_total=batches_total,
            batches_pruned=batches_pruned,
            routed=self._routed,
        )

    def execute(self) -> RDD:
        return self.execute_filtered(None)

    def execute_filtered(self, condition: Expression | None) -> RDD:
        """The scan with ``condition`` decided inside the decode loop:
        a var-width row is decoded in full only when it survives."""
        return IndexedRowBatchRDD(
            self.ctx,
            self.version.snapshots,
            self.columns,
            keep=self._keep,
            batch_keep=self._batch_keep,
            predicate=condition,
        )

    def describe(self) -> str:
        cols = "all" if self.columns is None else self.columns
        base = f"IndexedScan[version={self.version.version_id}, columns={cols}"
        markers = []
        if self._pruned and self._keep is not None:
            total = self._pruned + len(self._keep)
            kind = "key_routed" if self._routed else "zone_pruned"
            markers.append(f"{kind}={self._pruned}/{total}")
        if self._batches_pruned:
            markers.append(f"batches_pruned={self._batches_pruned}")
        if self._index_rejected is not None:
            markers.append(f"index_rejected={self._index_rejected}")
        if markers:
            return base + ", " + ", ".join(markers) + "]"
        return base + "]"


class IndexLookupExec(PhysicalPlan):
    """Point lookups for literal keys on the indexed column."""

    PARTITIONING = "source"

    def __init__(
        self,
        ctx: EngineContext,
        version: Version,
        keys: Sequence[Any],
        output: Sequence[Attribute],
    ):
        super().__init__(ctx, output)
        self.version = version
        self.keys = list(keys)
        self._index_rejected: str | None = None

    def mark_index_rejected(self, reason: str) -> None:
        """The planner costed a bitmap plan against this lookup and the
        cTrie won; recorded so EXPLAIN shows the decision."""
        self._index_rejected = reason

    def execute(self) -> RDD:
        return IndexLookupRDD(self.ctx, self.version.snapshots, self.keys)

    def describe(self) -> str:
        if self._index_rejected is not None:
            return (
                f"IndexLookup[keys={self.keys!r}, "
                f"index_rejected={self._index_rejected}]"
            )
        return f"IndexLookup[keys={self.keys!r}]"


class IndexedJoinExec(PhysicalPlan):
    """Equi-join with the Indexed DataFrame as the build side.

    ``build_on_left`` records whether the indexed relation was the left
    operand of the logical join, so output column order matches the
    logical plan. Probe rows whose key is NULL never match (inner-join
    SQL semantics).
    """

    PARTITIONING = "exchange"

    def __init__(
        self,
        ctx: EngineContext,
        version: Version,
        build_output: Sequence[Attribute],
        probe: PhysicalPlan,
        probe_key: Expression,
        build_on_left: bool,
        extra_condition: Expression | None = None,
        broadcast_threshold: int = 0,
        probe_rows_estimate: int | None = None,
        build_columns: Sequence[int] | None = None,
    ):
        if build_on_left:
            output = list(build_output) + list(probe.output)
            combined = list(build_output) + list(probe.output)
        else:
            output = list(probe.output) + list(build_output)
            combined = list(probe.output) + list(build_output)
        super().__init__(ctx, output)
        self.children = (probe,)
        self.version = version
        self.build_on_left = build_on_left
        self.probe_key = bind_expression(probe_key, probe.output)
        self.extra = (
            bind_expression(extra_condition, combined)
            if extra_condition is not None
            else None
        )
        self.broadcast_threshold = broadcast_threshold
        self.probe_rows_estimate = probe_rows_estimate
        # When the logical build side was column-pruned, emit only the
        # selected ordinals of each decoded build row.
        self.build_columns = list(build_columns) if build_columns is not None else None

    # ------------------------------------------------------------------

    def _emit(
        self,
        snapshots: Sequence,
        partition_of,
        records: Iterator[tuple[Any, tuple]],
        extra,
    ) -> Iterator[tuple]:
        build_on_left = self.build_on_left
        build_columns = self.build_columns
        injector = self.ctx.fault_injector
        probe_chaos = injector if injector.enabled else None
        lookups: list = [None] * len(snapshots)
        for key, probe_row in records:
            if key is None:
                continue
            partition = partition_of(key)
            if probe_chaos is not None:
                probe_chaos.maybe_fail("index.probe", partition)
            lookup = lookups[partition]
            if lookup is None:
                lookup = lookups[partition] = snapshots[partition].lookup_fn()
            build_rows = lookup(key)
            if not build_rows:
                continue
            if build_columns is not None:
                build_rows = [tuple(r[c] for c in build_columns) for r in build_rows]
            if build_on_left:
                combined = [b + probe_row for b in build_rows]
            else:
                combined = [probe_row + b for b in build_rows]
            if extra is not None:
                combined = [c for c in combined if extra(c) is True]
            yield from combined

    def execute(self) -> RDD:
        snapshots = self.version.snapshots
        n = len(snapshots)
        partitioner = HashPartitioner(n)
        key_of = codegen.value_fn(self.probe_key)
        extra = codegen.predicate_fn(self.extra)
        keyed = self.children[0].execute().map(lambda row: (key_of(row), row))

        small_probe = (
            self.probe_rows_estimate is not None
            and self.probe_rows_estimate <= self.broadcast_threshold
        )
        if small_probe:
            # Broadcast fallback: no shuffle; every probe task reaches
            # straight into the (in-process) index partitions.
            return keyed.map_partitions(
                lambda records: self._emit(
                    snapshots, partitioner.partition, records, extra
                )
            )

        # Shuffle the probe side to the index's hash partitions; probes
        # are then purely partition-local.
        shuffled = keyed.filter(lambda kv: kv[0] is not None).partition_by(partitioner)

        def probe_partition(
            index: int, records: Iterator[tuple[Any, tuple]]
        ) -> Iterator[tuple]:
            return self._emit(snapshots, lambda _key: index, records, extra)

        return shuffled.map_partitions_with_index(probe_partition)

    def describe(self) -> str:
        side = "left" if self.build_on_left else "right"
        return (
            f"IndexedJoin[build={side}, version={self.version.version_id}, "
            f"probe_est={self.probe_rows_estimate}]"
        )


class _BitmapFetchRDD(RDD):
    """Fetch exactly the rows a bitmap selection names, per partition.

    ``selections[i]`` is partition *i*'s selected-row bitmap (bit *j* =
    the partition's *j*-th appended row); ``views[i]`` supplies the
    append-ordinal → packed-pointer array that resolves each set bit to
    its stored record. Bits are walked ascending, which *is* append
    order, so output order matches the scan-and-filter plan row for
    row. Reports the storage :class:`HashPartitioner` like the indexed
    scan does — partition count and numbering are unchanged.
    """

    def __init__(
        self,
        ctx: EngineContext,
        snapshots: Sequence[Any],
        selections: Sequence[int],
        views: Sequence[Any],
        columns: Sequence[int] | None = None,
    ):
        super().__init__(ctx, [])
        self.snapshots = list(snapshots)
        self.selections = list(selections)
        self.views = list(views)
        self.columns = list(columns) if columns is not None else None
        self.partitioner = HashPartitioner(len(self.snapshots))

    @property
    def num_partitions(self) -> int:
        return len(self.snapshots)

    def compute(self, split: int) -> Iterator[tuple]:
        # Chaos site: shared with the cTrie probe — either index kind
        # dies when the executor holding its partition does.
        self.context.fault_injector.maybe_fail("index.probe", split)
        bits = self.selections[split]
        if not bits:
            return iter(())
        snapshot = self.snapshots[split]
        pointers = self.views[split].pointers
        read = snapshot.partition.batches.read
        decode = snapshot.partition.codec.batch_decoder(self.columns)

        def fetch() -> Iterator[tuple]:
            positions = iter_bits(bits)
            while True:
                # A dense selection over a large partition walks millions
                # of bits; decoding 1024 rows at a time and polling per
                # chunk lets a cancelled query stop fetching instead of
                # materialising the rest of the selection.
                check_cancelled()
                chunk = [read(pointers[p])[1] for p in islice(positions, 1024)]
                if not chunk:
                    return
                yield from decode(chunk)

        return fetch()


class BitmapScanExec(PhysicalPlan):
    """Row fetch driven by one updatable bitmap-index predicate.

    The planner already evaluated the compiled bitmap program against
    each partition's snapshot views *at plan time* (big-int AND/OR over
    whole bitmaps), so this operator holds the exact per-partition
    selection and its popcount — ``execute`` only fetches. Snapshot
    visibility is baked into the selections: every bitmap was masked to
    the MVCC version's row count, so rows appended after the version
    was captured are invisible without any reader/writer blocking.
    """

    PARTITIONING = "source"
    #: EXPLAIN marker for the planner decision this operator embodies.
    MARKER = "bitmap_chosen"

    def __init__(
        self,
        ctx: EngineContext,
        version: Any,
        output: Sequence[Attribute],
        selections: Sequence[int],
        views: Sequence[Any],
        ordinals: Sequence[int],
        selected_rows: int,
        total_rows: int,
        columns: Sequence[int] | None = None,
    ):
        super().__init__(ctx, output)
        self.version = version
        self.selections = list(selections)
        self.views = list(views)
        self.ordinals = list(ordinals)
        self.selected_rows = selected_rows
        self.total_rows = total_rows
        self.columns = list(columns) if columns is not None else None

    def estimated_rows(self) -> int:
        """Exact, not an estimate: the selection popcount."""
        return self.selected_rows

    def execute(self) -> RDD:
        return _BitmapFetchRDD(
            self.ctx, self.version.snapshots, self.selections, self.views,
            self.columns,
        )

    def describe(self) -> str:
        cols = "all" if self.columns is None else self.columns
        return (
            f"{type(self).__name__}[version={self.version.version_id}, "
            f"columns={cols}, {self.MARKER}=True, ordinals={self.ordinals}, "
            f"selected={self.selected_rows}/{self.total_rows}]"
        )


class BitmapIndexAndExec(BitmapScanExec):
    """Multi-predicate bitmap combination (AND/OR intersection).

    Same fetch machinery as :class:`BitmapScanExec`; a distinct class
    (and EXPLAIN marker) because the planner costed a *combined*
    program — the case where bitmap indexes beat both the cTrie lookup
    and the zone-map-pruned scan on selective conjunctions.
    """

    MARKER = "bitmap_and"


class GuardedIndexExec(PhysicalPlan):
    """Graceful degradation around an indexed operator.

    Executes the indexed plan eagerly (so runtime failures — not just
    planning failures — are observable here) and returns its rows as
    one partition; if it fails with any library error, records the
    fallback in the scheduler metrics and re-executes through the
    vanilla plan built by ``fallback_factory``.
    The fallback is built lazily: the healthy path never plans it.

    The output attributes are the primary's, so downstream operators
    bind identically against either path.
    """

    PARTITIONING = "driver"

    def __init__(
        self,
        primary: PhysicalPlan,
        fallback_factory: Callable[[], PhysicalPlan],
        label: str,
    ):
        super().__init__(primary.ctx, primary.output)
        self.children = (primary,)
        self.fallback_factory = fallback_factory
        self.label = label
        self.last_error: BaseException | None = None

    def execute(self) -> RDD:
        primary = self.children[0]
        # Circuit breaker on the indexed path (serving mode only): once
        # index failures trip it, skip the doomed primary attempt and go
        # straight to the vanilla fallback until a probe closes it.
        serving = getattr(self.ctx, "serving", None)
        breaker = None if serving is None else serving.breaker("index.fallback")
        if breaker is not None and not breaker.allow():
            self.ctx.scheduler.metrics.record_index_fallback(self.label)
            return self.fallback_factory().execute()
        try:
            rows = primary.execute().collect()
        except ReproError as exc:
            self.last_error = exc
            if breaker is not None:
                breaker.record_failure()
            self.ctx.scheduler.metrics.record_index_fallback(self.label)
            return self.fallback_factory().execute()
        if breaker is not None:
            breaker.record_success()
        # The rows are already on the driver: splitting them again only
        # adds tasks (and, on workers, ships them out to be counted).
        return self.ctx.parallelize(rows, 1)

    def describe(self) -> str:
        return f"GuardedIndex[{self.label}]"
