"""IndexedPartition: one partition of the Indexed Row-Batch RDD.

Combines the three per-partition structures of paper §2 — the cTrie
index, the row batches, and the backward pointers — and implements the
two operations the paper describes:

* **append**: encode the row, point the cTrie at the place the row is
  about to occupy — one upsert, which returns the key's previous head
  pointer — and store the row with that pointer as its backward link;
* **lookup**: read the cTrie, then walk the backward chain to collect
  every row sharing the key.

:class:`PartitionSnapshot` captures an O(1) consistent view (cTrie
read-only snapshot + batch watermark) — the MVCC mechanism that lets
queries run at a stable version while appends continue.
"""

from __future__ import annotations

import threading
import weakref
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.core.pointers import NULL_POINTER, PointerLayout
from repro.core.rowbatch import HEADER_SIZE, BatchManager
from repro.core.rowcodec import RowCodec, codec_for
from repro.ctrie import CTrie
from repro.engine.query import check_cancelled
from repro.sql.pruning import PruningPredicate
from repro.sql.types import StructType
from repro.stats import ZoneMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.wal import WALWriter
    from repro.sql.expressions import Expression


class PartitionSnapshot:  # analysis: shipped
    """A consistent, immutable view of a partition at one version."""

    __slots__ = (
        "partition",
        "trie",
        "watermark",
        "row_count",
        "distinct_keys",
        "batch_zones",
        "zone",
        "bitmaps",
        "__weakref__",
    )

    def __init__(
        self,
        partition: "IndexedPartition",
        trie: CTrie,
        watermark: tuple[int, int],
        row_count: int,
        distinct_keys: int,
        batch_zones: "list[ZoneMap]",
        zone: ZoneMap,
        bitmaps: "dict[int, Any] | None" = None,
    ):
        self.partition = partition
        self.trie = trie
        self.watermark = watermark
        self.row_count = row_count
        self.distinct_keys = distinct_keys
        # Zone maps at this version: sealed batches share the live maps
        # (immutable once a newer batch exists); the active batch's map
        # is a copy taken under the append lock, so it describes exactly
        # the rows below ``watermark`` even while appends continue.
        self.batch_zones = batch_zones
        self.zone = zone
        # Bitmap-index views at this version (storage ordinal →
        # BitmapColumnView), None when no bitmap index is attached.
        self.bitmaps = bitmaps

    # -- reads -----------------------------------------------------------

    def lookup(self, key: Any) -> list[tuple]:
        """All rows for ``key`` at this version, newest first."""
        return self.lookup_fn()(key)

    def lookup_fn(self) -> Callable[[Any], list[tuple]]:
        """:meth:`lookup` with the compiled chain walker resolved once,
        for a caller that probes many keys one at a time."""
        batches = self.partition.batches
        walk = self.partition.codec.chain_decoder(batches.layout)
        buffers = batches.buffers
        get = self.trie.get

        def lookup(key: Any) -> list[tuple]:
            out: list[tuple] = []
            head = get(key, NULL_POINTER)
            if head != NULL_POINTER:
                walk(buffers, head, out.append)
            return out

        return lookup

    def lookup_head(self, key: Any) -> tuple | None:
        """The most recently appended row for ``key``, or None."""
        head = self.trie.get(key, NULL_POINTER)
        if head == NULL_POINTER:
            return None
        _prev, payload = self.partition.batches.read(head)
        return self.partition.codec.decode(payload)

    def contains(self, key: Any) -> bool:
        return key in self.trie

    def scan(self, batches: "frozenset[int] | None" = None) -> Iterator[tuple]:
        """Every row at this version, in append order.

        ``batches`` restricts the walk to those batch numbers (the
        zone-map skip path — see :meth:`matching_batches`).
        """
        codec = self.partition.codec
        for payload in self.partition.batches.scan(self.watermark, batches):
            yield codec.decode(payload)

    def matching_batches(
        self, predicates: Sequence[PruningPredicate]
    ) -> "frozenset[int] | None":
        """Batch numbers whose zone maps admit ``predicates``.

        Returns ``None`` for an empty predicate list — meaning "scan
        everything". Predicates use *storage* ordinals.
        """
        if not predicates:
            return None
        return frozenset(
            batch_no
            for batch_no, zone in enumerate(self.batch_zones)
            if zone.may_match(predicates)
        )

    def may_match(self, predicates: Sequence[PruningPredicate]) -> bool:
        """Could this partition hold any row matching ``predicates``?"""
        if not predicates:
            return True
        return self.zone.may_match(predicates)

    def scan_batches(
        self,
        columns: Sequence[int] | None = None,
        chunk_rows: int = 4096,
        batches: "frozenset[int] | None" = None,
        predicate: "Expression | None" = None,
    ) -> Iterator[tuple]:
        """Bulk-decoded scan via the compiled per-schema decoder.

        Row-for-row identical to :meth:`scan` (projected to ``columns``
        when given), but a
        region decoder walks each batch buffer in place — record
        headers included — instead of the per-record memoryview
        slicing plus per-field codec loop. ``predicate``, bound to the
        decoded row, keeps only the rows for which it is True, decided
        inside the decode loop. ``chunk_rows`` bounds the records
        decoded per decoder call so early-stopping consumers (``take``,
        ``Limit``) don't force whole buffers; cancellation is polled
        once per chunk.
        """
        decode = self.partition.codec.region_decoder(columns, predicate)
        regions = self.partition.batches.regions(self.watermark, batches)

        def blocks() -> Iterator[list[tuple]]:
            for buf, end in regions:
                base = 0
                while base < end:
                    check_cancelled()
                    rows, base = decode(buf, base, end, chunk_rows)
                    yield rows

        # chain.from_iterable walks each decoded block at C speed — no
        # generator-frame resume per row, which matters at scan scale.
        return chain.from_iterable(blocks())

    def lookup_rows(self, keys: Sequence[Any]) -> list[tuple]:
        """Bulk lookup: every row for every key, compiled-decoded.

        Equivalent to chaining :meth:`lookup` over ``keys`` (per-key
        newest-first order preserved), but a compiled chain walker
        resolves the packed pointers and decodes each row straight from
        the batch buffers — no per-row memoryview, no payload staging.
        """
        batches = self.partition.batches
        walk = self.partition.codec.chain_decoder(batches.layout)
        buffers = batches.buffers
        get = self.trie.get
        out: list[tuple] = []
        append = out.append
        for key in keys:
            head = get(key, NULL_POINTER)
            if head != NULL_POINTER:
                walk(buffers, head, append)
        return out

    def keys(self) -> Iterator[Any]:
        return iter(self.trie.keys())

    def __len__(self) -> int:
        return self.row_count


class IndexedPartition:
    """Mutable (append-only) storage for one hash partition.

    Appends are serialized with a short lock (matching Spark's
    one-task-per-partition model); reads are lock-free against
    snapshots.
    """

    def __init__(
        self,
        schema: StructType,
        key_ordinal: int,
        layout: PointerLayout,
        batch_size_bytes: int,
        max_row_bytes: int,
        sanitizers: bool = False,
    ):
        self.schema = schema
        self.key_ordinal = key_ordinal
        self.codec = codec_for(schema, max_row_bytes)
        self._sanitize = sanitizers
        self.batches = BatchManager(  # guarded-by: _append_lock
            layout, batch_size_bytes, sanitize=sanitizers
        )
        self.trie = CTrie()  # guarded-by: _append_lock
        self._append_lock = threading.Lock()
        self._row_count = 0  # guarded-by: _append_lock
        self._distinct_keys = 0  # guarded-by: _append_lock
        # One zone map per row batch plus a partition-level rollup,
        # maintained under the append lock. Batch zones seal along with
        # their batch: once a newer batch exists, nothing touches them
        # (with sanitizers on, "nothing" is enforced — see _record_row).
        self._num_columns = len(schema)
        self._batch_zones = [ZoneMap(self._num_columns)]  # guarded-by: _append_lock
        self._zone = ZoneMap(self._num_columns)  # guarded-by: _append_lock
        # Optional write-ahead log: when attached, every append batch
        # is logged (and fsynced) *before* the in-memory apply, both
        # under the same lock — so a checkpoint rotating the WAL under
        # that lock sees exactly the applied rows in the old segment.
        self._wal: "WALWriter | None" = None  # guarded-by: _append_lock
        # Secondary bitmap indexes by storage ordinal. Each index has
        # its own inner lock (always acquired *inside* the append lock,
        # never the other way around); the dict itself — attach, lookup,
        # iteration on the append path — is append-lock territory.
        self._bitmap_indexes: dict = {}  # guarded-by: _append_lock
        # The last snapshot handed out, while nothing has changed since
        # and someone still holds it. Weak: the partition must not keep
        # a version alive (and a strong reference would close a cycle
        # through ``PartitionSnapshot.partition``).
        self._last_snapshot: "weakref.ref | None" = None  # guarded-by: _append_lock

    # -- writes ------------------------------------------------------------

    def _record_row(self, row: Sequence[Any]) -> None:  # requires-lock: _append_lock
        """Update zone maps for one appended row."""
        zones = self._batch_zones
        while len(zones) < self.batches.num_batches:
            # The previous batch just rolled: its zone is final. With
            # sanitizers on it becomes write-poisoned, matching the CRC
            # seal the BatchManager put on the batch itself.
            if self._sanitize:
                zones[-1].seal()
            zones.append(ZoneMap(self._num_columns))
        zones[-1].update_row(row)
        self._zone.update_row(row)

    def append(self, row: Sequence[Any]) -> int:
        """Append one row; returns its packed pointer."""
        payloads = [self.codec.encode(row)]
        with self._append_lock:
            return self._apply((row,), payloads)

    def append_many(self, rows: Sequence[Sequence[Any]]) -> int:
        """Append a batch of rows; returns how many were stored.

        All-or-nothing at the encode step: every row is encoded (and
        thereby schema/capacity-validated) before the first one is
        stored, matching the atomic-apply contract the MVCC watermark
        dedup relies on — and letting the WAL log the whole batch with
        one write + fsync before any in-memory mutation. Encoding is
        pure, so it runs *before* the append lock is taken: snapshots,
        captures and checkpoint rotation never wait on it.
        """
        encode = self.codec.encode
        payloads = [encode(row) for row in rows]
        if payloads:
            with self._append_lock:
                self._apply(rows, payloads)
        return len(payloads)

    def _apply(  # requires-lock: _append_lock
        self, rows: Sequence[Sequence[Any]], payloads: list[bytes]
    ) -> int:
        """Log, then store, encoded rows; returns the last row's pointer.

        Per row: reserve the record's pointer, swing the cTrie to it —
        one upsert that hands back the key's previous head — write the
        record with that head as its backward link, then fold the row
        into the zone maps and bitmap deltas. Between the upsert and
        the write the live trie points at bytes not yet written; only
        snapshots dereference pointers, and taking one needs this lock.
        """
        if self._wal is not None:
            self._wal.append_rows(payloads)
        self._last_snapshot = None
        key_ordinal = self.key_ordinal
        upsert = self.trie.insert
        reserve = self.batches.reserve
        write = self.batches.write
        record_zones = self._record_row
        record_bitmaps = [index.record for index in self._bitmap_indexes.values()]
        fresh_keys = 0
        pointer = NULL_POINTER
        for row, payload in zip(rows, payloads):
            pointer = reserve(len(payload))
            prev = upsert(row[key_ordinal], pointer, NULL_POINTER)
            write(payload, prev)
            if prev == NULL_POINTER:
                fresh_keys += 1
            record_zones(row)
            for record in record_bitmaps:
                record(row, pointer)
        self._row_count += len(payloads)
        self._distinct_keys += fresh_keys
        return pointer

    # -- versioning -----------------------------------------------------------

    def snapshot(self) -> PartitionSnapshot:
        """Capture a consistent point-in-time view (O(1)).

        A partition that received no row (and no new index) since its
        last snapshot hands that snapshot out again while anyone still
        holds it: small update batches leave most partitions untouched,
        and a fresh trie generation would make the next writer re-copy
        the path to every key it touches for nothing.
        """
        with self._append_lock:
            if self._sanitize:
                self.batches.verify_seals()
            last = self._last_snapshot
            snapshot = last() if last is not None else None
            if snapshot is None:
                snapshot = self._snapshot_locked()
                self._last_snapshot = weakref.ref(snapshot)
        return snapshot

    def _snapshot_locked(self) -> PartitionSnapshot:  # requires-lock: _append_lock
        trie = self.trie.readonly_snapshot()
        # Sealed zones (all but the last) never change again and can be
        # shared; the active one is copied so appends past the watermark
        # stay invisible to this snapshot.
        batch_zones = self._batch_zones[:-1] + [self._batch_zones[-1].copy()]
        zone = self._zone.copy()
        if self._sanitize:
            # Snapshot-owned copies are immutable by contract too:
            # poison them so any consumer that tries to fold new rows
            # into a snapshot's zone map trips SZ001 instead of skewing
            # pruning decisions.
            batch_zones[-1].seal()
            zone.seal()
        bitmaps = None
        if self._bitmap_indexes:
            bitmaps = {
                ordinal: index.snapshot_view()
                for ordinal, index in self._bitmap_indexes.items()
            }
        return PartitionSnapshot(
            self,
            trie,
            self.batches.watermark(),
            self._row_count,
            self._distinct_keys,
            batch_zones,
            zone,
            bitmaps,
        )

    # -- secondary indexes -----------------------------------------------------

    def attach_bitmap_index(self, ordinal: int):
        """Attach (or return the existing) bitmap index on ``ordinal``.

        Backfills from storage under the append lock — the walk
        reconstructs each row's packed pointer from the batch headers —
        so the index is exactly caught up when the lock drops and every
        later append flows through :meth:`append` / :meth:`append_many`.
        Idempotent: one maintained index per column, shared by every
        consumer (the Shared Arrangements contract).
        """
        from repro.index.bitmap import PartitionBitmapIndex

        with self._append_lock:
            existing = self._bitmap_indexes.get(ordinal)
            if existing is not None:
                return existing
            index = PartitionBitmapIndex(ordinal)
            codec = self.codec
            for pointer, payload in self.batches.records():
                index.record(codec.decode(payload), pointer)
            self._bitmap_indexes[ordinal] = index
            self._last_snapshot = None
        return index

    def bitmap_index(self, ordinal: int):
        """The attached bitmap index on ``ordinal``, or None."""
        with self._append_lock:
            return self._bitmap_indexes.get(ordinal)

    # -- durability -----------------------------------------------------------

    def attach_wal(self, wal: "WALWriter | None") -> None:
        """Attach (or detach) the write-ahead log for this partition."""
        with self._append_lock:
            self._wal = wal

    def _export_locked(self) -> dict:  # requires-lock: _append_lock
        """Checkpointable state: sealed batch bytes, the cTrie manifest
        (key → packed pointer), counters, and zone-map copies."""
        state: dict[str, Any] = {
            "batches": self.batches.export_batches(),
            "index": self.trie.to_dict(),
            "row_count": self._row_count,
            "distinct_keys": self._distinct_keys,
            "batch_zones": [zone.copy() for zone in self._batch_zones],
            "zone": self._zone.copy(),
        }
        if self._bitmap_indexes:
            state["bitmaps"] = {
                ordinal: index.export_state()
                for ordinal, index in self._bitmap_indexes.items()
            }
        return state

    def export_state(self) -> dict:
        """A consistent checkpoint image of this partition."""
        with self._append_lock:
            return self._export_locked()

    def rotate_wal(self, new_wal: "WALWriter | None") -> dict:
        """Atomically export checkpoint state and switch WAL segments.

        Under the append lock, so the exported state contains exactly
        the rows logged to the *old* segment: every row in an older
        epoch is inside this export, which is what lets the old epochs
        be deleted once the checkpoint commits.
        """
        with self._append_lock:
            state = self._export_locked()
            old = self._wal
            self._wal = new_wal
        if old is not None:
            old.close()
        return state

    @classmethod
    def from_state(
        cls,
        schema: StructType,
        key_ordinal: int,
        layout: PointerLayout,
        batch_size_bytes: int,
        max_row_bytes: int,
        state: dict,
        sanitizers: bool = False,
    ) -> "IndexedPartition":
        """Rebuild a partition from :meth:`export_state` output."""
        partition = cls(
            schema,
            key_ordinal,
            layout,
            batch_size_bytes,
            max_row_bytes,
            sanitizers=sanitizers,
        )
        with partition._append_lock:
            partition.batches = BatchManager.restore(
                layout, batch_size_bytes, state["batches"], sanitize=sanitizers
            )
            partition.trie = CTrie.from_items(state["index"].items())
            partition._row_count = state["row_count"]
            partition._distinct_keys = state["distinct_keys"]
            zones = state.get("batch_zones")
            zone = state.get("zone")
            if zones is None or len(zones) != partition.batches.num_batches:
                zones, zone = partition._rebuild_zones_locked()
            if sanitizers:
                # Restored rolled-past zones are final again; the active
                # tail zone stays live for further appends.
                for sealed_zone in zones[:-1]:
                    sealed_zone.seal()
            partition._batch_zones = zones
            partition._zone = zone
            bitmap_states = state.get("bitmaps")
            if bitmap_states:
                from repro.index.bitmap import PartitionBitmapIndex

                partition._bitmap_indexes = {
                    ordinal: PartitionBitmapIndex.from_state(bitmap_state)
                    for ordinal, bitmap_state in bitmap_states.items()
                }
        return partition

    def _rebuild_zones_locked(  # requires-lock: _append_lock
        self,
    ) -> tuple[list[ZoneMap], ZoneMap]:
        """Recompute per-batch + rollup zone maps by scanning storage.

        Used when a checkpoint state carries no zones, or a zone list
        whose length disagrees with the restored batches: state read
        from disk is not trusted to describe the rows it restores.
        """
        codec = self.codec
        zones: list[ZoneMap] = []
        rollup = ZoneMap(self._num_columns)
        watermark = self.batches.watermark()
        for batch_no in range(self.batches.num_batches):
            zone = ZoneMap(self._num_columns)
            for payload in self.batches.scan(watermark, {batch_no}):
                row = codec.decode(payload)
                zone.update_row(row)
                rollup.update_row(row)
            zones.append(zone)
        return zones, rollup

    # -- live reads (latest version) --------------------------------------------

    def lookup(self, key: Any) -> list[tuple]:
        return self.snapshot().lookup(key)

    def scan(self) -> Iterator[tuple]:
        return self.snapshot().scan()

    @property
    def row_count(self) -> int:
        return self._row_count

    def key_count(self) -> int:
        """Distinct keys currently indexed (O(1), tracked on append)."""
        return self._distinct_keys

    # -- accounting ---------------------------------------------------------------

    def memory_stats(self) -> dict[str, int]:
        """Byte accounting for the memory-overhead benchmark."""
        from repro.engine.cache import estimate_size

        data_bytes = self.batches.used_bytes()
        return {
            "rows": self._row_count,
            "data_bytes": data_bytes,
            "allocated_bytes": self.batches.allocated_bytes(),
            "header_bytes": self._row_count * HEADER_SIZE,
            "index_entries": self.key_count(),
            "index_bytes": estimate_size(self.trie.to_dict()),
        }

    def __repr__(self) -> str:
        return (
            f"IndexedPartition(rows={self._row_count}, "
            f"keys≈{self.key_count()}, {self.batches!r})"
        )
