"""The Indexed Row-Batch RDD (paper §2, Figure 1).

A custom RDD whose partitions are :class:`PartitionSnapshot` views of
Indexed DataFrame storage. ``compute`` decodes binary rows back into
tuples — the *"transformToRowRDD"* fall-back path of Figure 1 that
lets any regular operator run on top of indexed storage.

Because the underlying data is already resident (and hash-partitioned
on the index key), the RDD reports a matching
:class:`~repro.engine.partitioner.HashPartitioner`, letting the engine
elide shuffles for co-partitioned operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.core.partition import PartitionSnapshot
from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner, bucket_keys
from repro.engine.rdd import RDD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.expressions import Expression


class IndexedRowBatchRDD(RDD):
    """Decoded-row view over indexed partitions.

    ``columns`` selects field ordinals to decode. A row store touches
    every row regardless of how few columns are needed — the
    projection cost the paper measures in Figure 2 — but the decoder
    reads only the selected slots of each.

    ``predicate``, bound to the decoded row, is a filter pushed into
    the scan: only rows for which it is True come out, and the decoder
    decides that before it decodes the rest of a row.

    ``keep`` / ``batch_keep`` carry zone-map pruning decisions: splits
    outside ``keep`` compute to empty, and a kept split restricted by
    ``batch_keep[split]`` walks only those row batches. Partition count
    and numbering are unchanged, so the co-partitioning contract (the
    reported :class:`HashPartitioner`) still holds for surviving rows.
    """

    def __init__(
        self,
        ctx: EngineContext,
        snapshots: Sequence[PartitionSnapshot],
        columns: Sequence[int] | None = None,
        keep: Sequence[int] | None = None,
        batch_keep: "dict[int, frozenset[int]] | None" = None,
        predicate: "Expression | None" = None,
    ):
        super().__init__(ctx, [])
        self.snapshots = list(snapshots)
        self.columns = list(columns) if columns is not None else None
        self.keep = frozenset(keep) if keep is not None else None
        self.batch_keep = batch_keep
        self.predicate = predicate
        self.partitioner = HashPartitioner(len(self.snapshots))

    @property
    def num_partitions(self) -> int:
        return len(self.snapshots)

    def compute(self, split: int) -> Iterator[tuple]:
        if self.keep is not None and split not in self.keep:
            return iter(())
        batches = self.batch_keep.get(split) if self.batch_keep else None
        return self.snapshots[split].scan_batches(
            self.columns, batches=batches, predicate=self.predicate
        )


class IndexLookupRDD(RDD):
    """Point lookups for a set of keys, routed to their partitions.

    Each key belongs to exactly one hash partition; a task per involved
    partition walks the cTrie + backward chain. This is the physical
    form of ``getRows`` and of equality filters on the indexed column.
    """

    def __init__(
        self,
        ctx: EngineContext,
        snapshots: Sequence[PartitionSnapshot],
        keys: Sequence[Any],
    ):
        super().__init__(ctx, [])
        self.snapshots = list(snapshots)
        partitioner = HashPartitioner(len(self.snapshots))
        # Shared routing helper: the same bucketing that pruning and
        # fine-grained appends use, so routing never disagrees.
        self._by_partition = bucket_keys(keys, partitioner)
        self.partitioner = partitioner

    @property
    def num_partitions(self) -> int:
        return len(self.snapshots)

    def compute(self, split: int) -> Iterator[tuple]:
        # Chaos site: a failing cTrie probe (simulating index
        # corruption / a dead executor holding the index partition).
        self.context.fault_injector.maybe_fail("index.probe", split)
        yield from self.snapshots[split].lookup_rows(self._by_partition[split])
