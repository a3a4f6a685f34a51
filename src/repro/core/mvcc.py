"""Multi-version concurrency bookkeeping for Indexed DataFrames.

Every :class:`~repro.core.indexed_df.IndexedDataFrame` handle is bound
to one immutable :class:`Version`: a list of per-partition snapshots
(cTrie read-only snapshot + batch watermark). ``append_rows`` writes to
the shared live partitions and mints the next version; older handles
keep reading their own snapshots untouched — the paper's
*"updates with multi-version concurrency"*.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Sequence

from repro.core.partition import IndexedPartition, PartitionSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.checkpoint import DurableStore

_version_ids = itertools.count(1)
_store_ids = itertools.count(1)


class Version:
    """An immutable point-in-time view across all partitions.

    Who keeps a version alive: the :class:`IndexedDataFrame` handles
    bound to it, the plans (and running tasks) built from those handles,
    and nothing else — no store, partition or cache holds one strongly,
    and nothing a version reaches points back at a handle. Dropping the
    last handle therefore frees the version, and the trie generation
    only it could still read, by reference counting on the spot.
    """

    __slots__ = (
        "version_id",
        "snapshots",
        "store_id",
        "bitmap_ordinals",
        "__weakref__",
    )

    def __init__(self, snapshots: Sequence[PartitionSnapshot], store_id: int = 0):
        #: Process-wide and increasing: a later capture of one store
        #: always has the larger id.
        self.version_id = next(_version_ids)
        self.snapshots = list(snapshots)
        #: Which store minted this version (0: none, a bare version).
        self.store_id = store_id
        #: Storage ordinals with a bitmap index attached at this version.
        self.bitmap_ordinals = tuple(
            sorted(set().union(*(s.bitmaps or () for s in self.snapshots)))
        )

    @property
    def num_partitions(self) -> int:
        return len(self.snapshots)

    def row_count(self) -> int:
        return sum(len(s) for s in self.snapshots)

    def __repr__(self) -> str:
        return f"Version(id={self.version_id}, rows={self.row_count()})"


class VersionedStore:
    """The shared, live partition array plus version minting.

    Appends from any version handle land here; :meth:`capture` takes a
    consistent snapshot across partitions. Capturing while appends are
    in flight is safe — each partition snapshot is internally
    consistent, and cross-partition atomicity is not required by the
    append-only model (a row is visible in version *v* iff it was fully
    appended before *v*'s capture of its partition).
    """

    def __init__(self, partitions: Sequence[IndexedPartition]):
        if not partitions:
            raise ValueError("a versioned store needs at least one partition")
        self.partitions = list(partitions)
        #: Identity of this store for plan-cache keys: unlike ``id()``
        #: it is never reused, so nothing needs pinning to keep it valid.
        self.store_id = next(_store_ids)
        self._capture_lock = threading.Lock()
        # Set by the durability coordinator when this store is bound to
        # an on-disk DurableStore (WAL + checkpoints); None for plain
        # in-memory stores. The ingestion loop reads it to persist
        # applied-offset watermarks next to the row log, and recovery
        # sets it on the store it rebuilds.
        self.durable_store: "DurableStore | None" = None

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def capture(self) -> Version:
        """Mint a new version from the current partition states."""
        with self._capture_lock:
            return Version([p.snapshot() for p in self.partitions], self.store_id)

    def total_rows(self) -> int:
        return sum(p.row_count for p in self.partitions)

    def memory_stats(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for partition in self.partitions:
            for key, value in partition.memory_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals
