"""RecoveryManager: rebuild an Indexed DataFrame from durable state.

Recovery is checkpoint-then-replay:

1. read the sealed table metadata (``meta.bin``) and the ``CURRENT``
   checkpoint pointer;
2. rebuild every partition from the committed checkpoint's sealed
   state blobs (or from empty partitions when no checkpoint exists
   yet) — backward-pointer chains come back verbatim inside the
   exported batch bytes, the cTrie is re-inserted from its manifest;
3. replay every WAL epoch at or after the checkpoint epoch, appending
   each intact row record through the normal partition append path
   (rebuilding chains, counters, and zone maps for post-checkpoint
   rows) and folding applied-offset markers advance-only;
4. restore broker consumer-group offsets from the recovered
   watermarks, so the ingestion loop's existing dedup absorbs any
   batch that was applied-and-marked but re-polled after restart;
5. re-attach live WAL writers (appends continue into the replayed
   segments), invalidate the block-manager cache (cached query results
   may reference pre-crash object identities), and mint a fresh MVCC
   version.

Invariants (asserted by the chaos suite in ``tests/durability``):

* every row whose append was acknowledged before the crash is present
  after recovery — acknowledged means the WAL record was written, so
  replay finds it in the intact prefix;
* no row from a torn (unacknowledged) record is resurrected — torn
  tails fail the CRC seal and are truncated;
* recovery is idempotent — crashing during recovery and recovering
  again yields the same state, because replay only truncates bytes
  that were never part of an intact record.

Failures split by blame: a torn WAL tail is a normal crash artifact
(silently truncated); damage inside a *committed* checkpoint or the
sealed metadata is corruption and raises
:class:`~repro.errors.RecoveryError`, which no retry or fallback layer
absorbs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.indexed_df import IndexedDataFrame
from repro.core.mvcc import VersionedStore
from repro.core.partition import IndexedPartition
from repro.core.pointers import PointerLayout
from repro.errors import RecoveryError
from repro.faults import NULL_INJECTOR, FaultInjector
from repro.sql.types import StructField, StructType, type_for_name

from repro.durability.checkpoint import DurableStore
from repro.durability.wal import latest_offsets, replay_rows, replay_wal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.session import Session
    from repro.streaming.broker import Broker


def schema_to_meta(schema: StructType) -> list[tuple[str, str, bool]]:
    """Portable ``(name, type_name, nullable)`` triples for ``meta.bin``
    (independent of pickle details of the type classes)."""
    return [(f.name, f.dtype.name, f.nullable) for f in schema.fields]


def schema_from_meta(triples: list[tuple[str, str, bool]]) -> StructType:
    return StructType(
        [
            StructField(name, type_for_name(type_name), nullable)
            for name, type_name, nullable in triples
        ]
    )


class RecoveryManager:
    """Restores one durable store into a live :class:`IndexedDataFrame`."""

    def __init__(self, session: "Session", injector: FaultInjector = NULL_INJECTOR):
        self.session = session
        self._injector = injector

    def recover(
        self, store: DurableStore, broker: "Broker | None" = None
    ) -> IndexedDataFrame:
        """Rebuild the store's table; see the module docstring.

        The returned handle is bound to a fresh MVCC version with live
        WAL writers already attached — appends made through it (or any
        later version handle) are durable again immediately.
        """
        config = self.session.config
        meta = store.read_meta()
        schema = schema_from_meta(meta["schema"])
        key_ordinal = meta["key_ordinal"]
        num_partitions = meta["num_partitions"]
        batch_size = meta["batch_size_bytes"]
        max_row = meta["max_row_bytes"]
        layout = PointerLayout.for_geometry(batch_size, max_row)

        ckpt_epoch = store.current_checkpoint_epoch()
        offsets: dict[tuple[str, str], dict[int, int]] = {}
        if ckpt_epoch is None:
            partitions = [
                IndexedPartition(
                    schema,
                    key_ordinal,
                    layout,
                    batch_size,
                    max_row,
                    sanitizers=config.sanitizers_enabled,
                )
                for _ in range(num_partitions)
            ]
            replay_from = 0
        else:
            states, ckpt_offsets = store.load_checkpoint(ckpt_epoch)
            if len(states) != num_partitions:
                raise RecoveryError(
                    f"checkpoint {ckpt_epoch} holds {len(states)} partitions, "
                    f"table metadata says {num_partitions}"
                )
            partitions = [
                IndexedPartition.from_state(
                    schema,
                    key_ordinal,
                    layout,
                    batch_size,
                    max_row,
                    state,
                    sanitizers=config.sanitizers_enabled,
                )
                for state in states
            ]
            offsets = {key: dict(value) for key, value in ckpt_offsets.items()}
            replay_from = ckpt_epoch

        self._replay(store, partitions, offsets, replay_from)

        # Drop stale artifacts a post-commit crash left behind, then go
        # live: recovered watermarks, WAL writers on the latest epoch.
        store.garbage_collect(replay_from)
        store.seed_offsets(offsets)
        store.attach(partitions)
        if broker is not None:
            for (group, topic), watermarks in offsets.items():
                broker.restore_committed_offsets(group, topic, watermarks)
        self.session.ctx.block_manager.invalidate_all()

        versioned = VersionedStore(partitions)
        versioned.durable_store = store
        return IndexedDataFrame(
            self.session,
            schema,
            key_ordinal,
            versioned,
            versioned.capture(),
        )

    def _replay(
        self,
        store: DurableStore,
        partitions: list[IndexedPartition],
        offsets: dict[tuple[str, str], dict[int, int]],
        replay_from: int,
    ) -> None:
        """Apply every intact WAL record from ``replay_from`` onward.

        Epochs ascend, and within an epoch each partition's log is
        self-contained, so rows replay in their original append order
        per partition — exactly what backward-pointer chains require.
        WAL writers are not attached yet: replayed appends must not be
        re-logged.
        """
        for epoch in store.wal_epochs():
            if epoch < replay_from:
                continue
            for index, partition in enumerate(partitions):
                path = store.wal_path(epoch, index)
                records = replay_wal(path, self._injector)
                payloads = replay_rows(records)
                if payloads:
                    codec = partition.codec
                    partition.append_many([codec.decode(p) for p in payloads])
            meta_records = replay_wal(store.meta_wal_path(epoch), self._injector)
            latest_offsets(meta_records, into=offsets)
