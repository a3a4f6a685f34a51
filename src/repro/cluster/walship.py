"""Worker-local WAL replay: durable partitions ship as references.

When a table is durable, every row the driver acknowledged is already
on shared disk — checkpoint blobs plus WAL segments, written *before*
the in-memory apply. Shipping a multi-megabyte shm snapshot of data
the worker can rebuild from its own shard's log is wasted work, and
after a fenced respawn it is exactly the re-shipping ROADMAP item 3
calls out. So the codec emits a compact ``("wal", (store_dir,
partition_index, row_count, watermark))`` token instead, and this
cache resolves it worker-side:

1. rebuild the shard once per ``(store_dir, partition_index)`` — the
   committed checkpoint's sealed state (or an empty partition) with
   the exact geometry recorded in ``meta.bin``;
2. replay WAL row records in epoch order **stopping at the snapshot's
   ``row_count``** — the log may have grown past the driver's MVCC
   version, and rows past the watermark belong to a future snapshot;
3. take a normal :class:`~repro.core.partition.IndexedPartition`
   snapshot and verify it lands on the driver's ``(row_count,
   watermark)`` exactly. Identical geometry + identical append order
   ⇒ identical watermark, so any mismatch means the durable state
   cannot reproduce this version (a checkpoint raced past it, an
   epoch was garbage-collected, a torn segment) and raises
   :class:`~repro.errors.WalReplayError` — transient: the driver
   disables wal-shipping for that partition and the retried task
   re-pickles with the shm segment path.

Later snapshots of the same shard replay *incrementally*: the cached
partition appends only the delta rows, and the MVCC contract keeps
every previously returned snapshot valid (they never read past their
own watermark).
"""

from __future__ import annotations

from typing import Any

from repro.core.partition import IndexedPartition, PartitionSnapshot
from repro.core.pointers import PointerLayout
from repro.durability.checkpoint import DurableStore
from repro.durability.wal import replay_rows, replay_wal
from repro.errors import FAIL_STOP, WalReplayError


class _Shard:
    """One locally rebuilt durable partition and its replay cursor."""

    __slots__ = ("store", "partition", "base_rows", "rows_applied")

    def __init__(
        self,
        store: DurableStore,
        partition: IndexedPartition,
        base_rows: int,
    ) -> None:
        self.store = store
        self.partition = partition
        #: Rows that came from the checkpoint blob (not replayable).
        self.base_rows = base_rows
        #: Total rows applied so far (checkpoint + replayed WAL rows).
        self.rows_applied = base_rows


class WorkerWalCache:
    """Worker-side resolver for ``("wal", ...)`` codec tokens.

    Single-threaded per worker process (one task at a time), so no
    locking — same discipline as :class:`WorkerShipCache`.
    """

    def __init__(self, config: Any) -> None:
        self._config = config
        self._shards: dict[tuple[str, int], _Shard] = {}
        self._snapshots: dict[tuple, PartitionSnapshot] = {}
        self.replays = 0
        self.rows_replayed = 0

    def load(
        self,
        store_dir: str,
        pindex: int,
        row_count: int,
        watermark: tuple[int, int],
    ) -> PartitionSnapshot:
        key = (store_dir, pindex, row_count, watermark)
        hit = self._snapshots.get(key)
        if hit is not None:
            return hit
        try:
            snap = self._rebuild(store_dir, pindex, row_count)
        except WalReplayError:
            raise
        except FAIL_STOP:
            raise
        except Exception as exc:  # noqa: BLE001 - any durable-state damage
            # Whatever broke the rebuild (missing store, RecoveryError
            # on a GC'd checkpoint, decode failure), the remedy is the
            # same: report it transient so the retry ships a segment.
            raise WalReplayError(store_dir, pindex, repr(exc)) from exc
        if snap.row_count != row_count or snap.watermark != watermark:
            raise WalReplayError(
                store_dir,
                pindex,
                f"replayed to (rows={snap.row_count}, wm={snap.watermark}), "
                f"driver snapshot is (rows={row_count}, wm={watermark})",
            )
        self._snapshots[key] = snap
        return snap

    # -- rebuild machinery ---------------------------------------------

    def _rebuild(
        self, store_dir: str, pindex: int, row_count: int
    ) -> PartitionSnapshot:
        shard = self._shards.get((store_dir, pindex))
        if shard is None or shard.rows_applied > row_count:
            # First touch — or the driver asked for an *older* MVCC
            # version than the cached shard has applied (possible when
            # version handles interleave); rebuild a throwaway base.
            fresh = self._base_shard(store_dir, pindex)
            if shard is None:
                self._shards[(store_dir, pindex)] = fresh
            shard = fresh
        if shard.base_rows > row_count:
            raise WalReplayError(
                store_dir,
                pindex,
                f"checkpoint already holds {shard.base_rows} rows, past the "
                f"snapshot's {row_count}",
            )
        if shard.rows_applied < row_count:
            self._replay_to(shard, pindex, row_count)
        if shard.rows_applied != row_count:
            raise WalReplayError(
                store_dir,
                pindex,
                f"WAL holds only {shard.rows_applied} rows, snapshot needs "
                f"{row_count}",
            )
        self.replays += 1
        return shard.partition.snapshot()

    def _base_shard(self, store_dir: str, pindex: int) -> _Shard:
        """Partition rebuilt from the committed checkpoint (or empty),
        with the geometry ``meta.bin`` records — the same recipe as
        :class:`~repro.durability.recovery.RecoveryManager`."""
        from repro.durability.recovery import schema_from_meta

        store = DurableStore(store_dir, fsync=False)
        meta = store.read_meta()
        schema = schema_from_meta(meta["schema"])
        key_ordinal = meta["key_ordinal"]
        batch_size = meta["batch_size_bytes"]
        max_row = meta["max_row_bytes"]
        layout = PointerLayout.for_geometry(batch_size, max_row)
        config = self._config
        ckpt_epoch = store.current_checkpoint_epoch()
        if ckpt_epoch is None:
            partition = IndexedPartition(
                schema,
                key_ordinal,
                layout,
                batch_size,
                max_row,
                sanitizers=config.sanitizers_enabled,
            )
        else:
            states, _offsets = store.load_checkpoint(ckpt_epoch)
            partition = IndexedPartition.from_state(
                schema,
                key_ordinal,
                layout,
                batch_size,
                max_row,
                states[pindex],
                sanitizers=config.sanitizers_enabled,
            )
        shard = _Shard(store, partition, partition.snapshot().row_count)
        return shard

    def _replay_to(self, shard: _Shard, pindex: int, row_count: int) -> None:
        """Append WAL rows ``[rows_applied, row_count)`` to the shard.

        ``truncate=False`` throughout: a concurrently-growing or torn
        segment must never be rewritten by a reader — the driver owns
        the log; the intact prefix is all a replayer may trust.
        """
        store = shard.store
        replay_from = store.current_checkpoint_epoch() or 0
        codec = shard.partition.codec
        cursor = shard.base_rows  # absolute row index of the next payload
        for epoch in store.wal_epochs():
            if epoch < replay_from:
                continue
            if shard.rows_applied >= row_count:
                break
            payloads = replay_rows(
                replay_wal(store.wal_path(epoch, pindex), truncate=False)
            )
            # Payload i of this epoch is absolute row (cursor + i): keep
            # the window [rows_applied, row_count) — skip rows applied on
            # an earlier load, stop before rows past the driver's version.
            lo = max(0, shard.rows_applied - cursor)
            hi = max(lo, min(len(payloads), row_count - cursor))
            if hi > lo:
                shard.partition.append_many(
                    [codec.decode(p) for p in payloads[lo:hi]]
                )
                shard.rows_applied += hi - lo
                self.rows_replayed += hi - lo
            cursor += len(payloads)


__all__ = ["WorkerWalCache"]
