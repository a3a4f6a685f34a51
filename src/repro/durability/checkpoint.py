"""DurableStore: one indexed table's WAL segments and checkpoints.

On-disk layout (one directory per durable store)::

    <root>/<name>/
        meta.bin                    sealed table metadata (schema, geometry)
        CURRENT                     sealed pointer to the live checkpoint
        wal/
            e00000000/              one directory per WAL *epoch*
                p00000.wal          per-partition row log
                meta.wal            applied-offset markers (ingestion)
            e00000001/ ...
        checkpoints/
            ckpt-00000001/          committed checkpoint (epoch 1)
                p00000.bin          sealed pickled partition state
                offsets.bin         sealed broker-offset watermarks
                MANIFEST            sealed {epoch, num_partitions}

Checkpoint commit protocol (all-or-nothing by rename):

1. rotate every partition's WAL into a fresh epoch directory — under
   each partition's append lock, so the exported state holds exactly
   the rows logged to the older epochs;
2. stage ``ckpt-<epoch>.tmp/`` with the sealed partition blobs
   (``crash.mid_checkpoint`` fires between files), offsets, MANIFEST;
3. ``rename`` the staged directory to its final name and atomically
   rewrite ``CURRENT`` — the commit point;
4. (``crash.post_checkpoint`` fires here) delete WAL epochs and
   checkpoints older than the new one.

A crash anywhere before step 3 leaves ``CURRENT`` on the previous
checkpoint and every WAL epoch since it intact — recovery replays them
all. A crash after step 3 leaves stale epochs behind, which recovery
garbage-collects. Checkpoint *epochs* only grow: a failed attempt
burns its epoch number (the rotated WAL segments stay replayable) and
the next attempt uses a fresh one, so a retried checkpoint can never
double-count rows.
"""

from __future__ import annotations

import os
import pickle
import re
import shutil
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.serialize import PICKLE_PROTOCOL
from repro.durability.files import (
    atomic_write,
    fsync_dir,
    maybe_fsync,
    read_bytes_retry,
    seal,
    unseal,
    write_all,
)
from repro.durability.wal import WALWriter
from repro.errors import DurabilityError, RecoveryError
from repro.faults import NULL_INJECTOR, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partition import IndexedPartition

CHECKPOINT_PREFIX = "ckpt-"
CURRENT_FILE = "CURRENT"
META_FILE = "meta.bin"

_EPOCH_DIR = re.compile(r"^e(\d{8})$")
_CKPT_DIR = re.compile(rf"^{CHECKPOINT_PREFIX}(\d{{8}})$")


class DurableStore:
    """WAL + checkpoint lifecycle for one indexed table.

    Constructed by the :class:`~repro.durability.coordinator.
    DurabilityCoordinator`; :meth:`attach` binds it to the live
    partitions (opening WAL writers), after which every append is
    logged before it is applied and the background checkpointer
    compacts the log into checkpoints.
    """

    def __init__(
        self,
        directory: Path | str,
        injector: FaultInjector = NULL_INJECTOR,
        fsync: bool = True,
        checkpoint_bytes: int = 4 * 1024 * 1024,
        checkpoint_age_s: float = 30.0,
        breaker=None,
    ):
        self.directory = Path(directory)
        self._injector = injector
        self._fsync = fsync
        # Optional "wal.fsync" CircuitBreaker (serving mode): handed to
        # every WAL writer this store opens.
        self._breaker = breaker
        self._checkpoint_bytes = checkpoint_bytes
        self._checkpoint_age_s = checkpoint_age_s
        # The checkpointer polls often enough to honour the age
        # threshold within a quarter of it, and at least every 100 ms.
        self._poll_s = min(0.1, checkpoint_age_s / 4)
        # Serializes checkpoints (manual vs background) and guards the
        # writer/epoch bookkeeping they mutate.
        self._ckpt_lock = threading.Lock()
        self._partitions: "list[IndexedPartition]" = []  # guarded-by: _ckpt_lock
        self._writers: list[WALWriter] = []  # guarded-by: _ckpt_lock
        self._next_epoch = 1  # guarded-by: _ckpt_lock
        self._last_checkpoint = time.monotonic()  # guarded-by: _ckpt_lock
        # The meta WAL (offset markers) rotates with checkpoints but is
        # appended to from the ingestion thread, so it gets its own lock.
        self._meta_lock = threading.Lock()
        self._meta_wal: WALWriter | None = None  # guarded-by: _meta_lock
        self._offsets_lock = threading.Lock()
        # (group, topic) → {partition: next_offset}, advance-only.
        self._offsets = {}  # guarded-by: _offsets_lock
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def name(self) -> str:
        return self.directory.name

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------

    @property
    def wal_root(self) -> Path:
        return self.directory / "wal"

    @property
    def checkpoints_root(self) -> Path:
        return self.directory / "checkpoints"

    def epoch_dir(self, epoch: int) -> Path:
        return self.wal_root / f"e{epoch:08d}"

    def wal_path(self, epoch: int, partition: int) -> Path:
        return self.epoch_dir(epoch) / f"p{partition:05d}.wal"

    def meta_wal_path(self, epoch: int) -> Path:
        return self.epoch_dir(epoch) / "meta.wal"

    def checkpoint_dir(self, epoch: int) -> Path:
        return self.checkpoints_root / f"{CHECKPOINT_PREFIX}{epoch:08d}"

    def wal_epochs(self) -> list[int]:
        """Existing WAL epoch numbers, ascending."""
        if not self.wal_root.is_dir():
            return []
        epochs = []
        for entry in self.wal_root.iterdir():
            match = _EPOCH_DIR.match(entry.name)
            if match and entry.is_dir():
                epochs.append(int(match.group(1)))
        return sorted(epochs)

    def checkpoint_epochs(self) -> list[int]:
        """Committed checkpoint epoch numbers, ascending (no ``.tmp``)."""
        if not self.checkpoints_root.is_dir():
            return []
        epochs = []
        for entry in self.checkpoints_root.iterdir():
            match = _CKPT_DIR.match(entry.name)
            if match and entry.is_dir():
                epochs.append(int(match.group(1)))
        return sorted(epochs)

    def current_checkpoint_epoch(self) -> int | None:
        """The epoch ``CURRENT`` points at, or None before the first
        checkpoint. Raises :class:`RecoveryError` if the pointer is
        damaged or dangling — CURRENT is written atomically, so any
        mismatch is corruption, not a crash artifact."""
        path = self.directory / CURRENT_FILE
        if not path.exists():
            return None
        payload = unseal(read_bytes_retry(path, self._injector), what="CURRENT")
        try:
            epoch = int(payload.decode("ascii"))
        except ValueError as exc:
            raise RecoveryError(f"CURRENT holds a non-numeric epoch: {payload!r}") from exc
        if not self.checkpoint_dir(epoch).is_dir():
            raise RecoveryError(
                f"CURRENT points at missing checkpoint epoch {epoch}"
            )
        return epoch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def initialize(self, meta: dict) -> None:
        """Create the store directory skeleton and write ``meta.bin``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_root.mkdir(exist_ok=True)
        self.checkpoints_root.mkdir(exist_ok=True)
        atomic_write(
            self.directory / META_FILE, seal(pickle.dumps(meta, protocol=PICKLE_PROTOCOL))
        )

    def exists(self) -> bool:
        return (self.directory / META_FILE).exists()

    def read_meta(self) -> dict:
        raw = read_bytes_retry(self.directory / META_FILE, self._injector)
        return pickle.loads(unseal(raw, what="meta.bin"))

    def attach(
        self, partitions: "Sequence[IndexedPartition]", epoch: int | None = None
    ) -> None:
        """Bind the live partitions: open WAL writers at ``epoch`` (the
        latest existing epoch by default; epoch 0 for a fresh store) in
        append mode and attach one to each partition."""
        with self._ckpt_lock:
            if epoch is None:
                existing = self.wal_epochs()
                epoch = existing[-1] if existing else 0
            self.epoch_dir(epoch).mkdir(parents=True, exist_ok=True)
            self._partitions = list(partitions)
            self._writers = []
            for i, partition in enumerate(self._partitions):
                writer = WALWriter(
                    self.wal_path(epoch, i),
                    self._injector,
                    self._fsync,
                    breaker=self._breaker,
                )
                self._writers.append(writer)
                partition.attach_wal(writer)
            with self._meta_lock:
                self._meta_wal = WALWriter(
                    self.meta_wal_path(epoch),
                    self._injector,
                    self._fsync,
                    breaker=self._breaker,
                )
            self._next_epoch = epoch + 1
            self._last_checkpoint = time.monotonic()

    def close(self) -> None:
        """Stop the checkpointer and detach/close every WAL writer."""
        self.stop_checkpointer()
        with self._ckpt_lock:
            for partition in self._partitions:
                partition.attach_wal(None)
            for writer in self._writers:
                writer.close()
            self._writers = []
            self._partitions = []
            with self._meta_lock:
                if self._meta_wal is not None:
                    self._meta_wal.close()
                    self._meta_wal = None

    # ------------------------------------------------------------------
    # Offsets (streaming ingestion watermarks)
    # ------------------------------------------------------------------

    def log_offsets(self, group: str, topic: str, offsets: dict[int, int]) -> None:
        """Persist an applied-offset watermark for a consumer group.

        The in-memory fold happens *before* the WAL append so a
        checkpoint racing with this call sees the watermark through its
        post-rotation snapshot even when the marker record itself lands
        in an epoch the checkpoint is about to retire.
        """
        with self._offsets_lock:
            current = self._offsets.setdefault((group, topic), {})
            for partition, offset in offsets.items():
                if offset > current.get(partition, 0):
                    current[partition] = offset
        with self._meta_lock:
            if self._meta_wal is not None:
                self._meta_wal.append_offsets(group, topic, offsets)

    def seed_offsets(
        self, offsets: dict[tuple[str, str], dict[int, int]]
    ) -> None:
        """Install recovered watermarks (recovery only)."""
        with self._offsets_lock:
            self._offsets = {k: dict(v) for k, v in offsets.items()}

    def offsets(self) -> dict[tuple[str, str], dict[int, int]]:
        with self._offsets_lock:
            return {k: dict(v) for k, v in self._offsets.items()}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def wal_bytes(self) -> int:
        """Bytes in the live (uncheckpointed) WAL segments."""
        with self._ckpt_lock:
            writers = list(self._writers)
            with self._meta_lock:
                meta = self._meta_wal
        total = sum(w.size_bytes() for w in writers)
        if meta is not None:
            total += meta.size_bytes()
        return total

    def should_checkpoint(self) -> bool:
        """Size or age threshold exceeded on the live WAL?"""
        size = self.wal_bytes()
        if size == 0:
            return False
        if size >= self._checkpoint_bytes:
            return True
        with self._ckpt_lock:
            age = time.monotonic() - self._last_checkpoint
        return age >= self._checkpoint_age_s

    def checkpoint(self) -> int:
        """Cut a checkpoint; returns its epoch number.

        See the module docstring for the commit protocol. Safe to call
        concurrently with appends (rotation is per-partition under the
        append lock) but serialized against itself.
        """
        with self._ckpt_lock:
            epoch = self._next_epoch
            self._next_epoch += 1
            self.epoch_dir(epoch).mkdir(parents=True, exist_ok=True)
            # 1. Rotate: per partition, atomically export state and
            # redirect its WAL to the new epoch.
            states = []
            writers = []
            for i, partition in enumerate(self._partitions):
                writer = WALWriter(
                    self.wal_path(epoch, i),
                    self._injector,
                    self._fsync,
                    breaker=self._breaker,
                )
                writers.append(writer)
                states.append(partition.rotate_wal(writer))
            self._writers = writers
            with self._meta_lock:
                old_meta = self._meta_wal
                self._meta_wal = WALWriter(
                    self.meta_wal_path(epoch),
                    self._injector,
                    self._fsync,
                    breaker=self._breaker,
                )
            if old_meta is not None:
                old_meta.close()
            offsets = self.offsets()
            # 2. Stage the checkpoint under a .tmp name.
            tmp = self.checkpoints_root / f"{CHECKPOINT_PREFIX}{epoch:08d}.tmp"
            if tmp.exists():
                shutil.rmtree(tmp)
            tmp.mkdir(parents=True)
            for i, state in enumerate(states):
                self._write_blob(
                    tmp / f"p{i:05d}.bin", seal(pickle.dumps(state, protocol=PICKLE_PROTOCOL))
                )
                self._injector.maybe_crash("crash.mid_checkpoint")
            self._write_blob(
                tmp / "offsets.bin", seal(pickle.dumps(offsets, protocol=PICKLE_PROTOCOL))
            )
            manifest = {"epoch": epoch, "num_partitions": len(states)}
            self._write_blob(
                tmp / "MANIFEST", seal(pickle.dumps(manifest, protocol=PICKLE_PROTOCOL))
            )
            fsync_dir(tmp)
            # 3. Commit: rename + CURRENT swing.
            os.replace(tmp, self.checkpoint_dir(epoch))
            fsync_dir(self.checkpoints_root)
            atomic_write(
                self.directory / CURRENT_FILE,
                seal(str(epoch).encode("ascii")),
            )
            self._last_checkpoint = time.monotonic()
            self._injector.maybe_crash("crash.post_checkpoint")
            # 4. Retire everything the new checkpoint covers.
            self.garbage_collect(epoch)
            return epoch

    def _write_blob(self, path: Path, data: bytes) -> None:
        with open(path, "wb") as fh:
            write_all(fh, data, self._injector)
            maybe_fsync(fh, self._injector, self._fsync)

    def garbage_collect(self, keep_epoch: int) -> None:
        """Delete WAL epochs, checkpoints, and staging leftovers older
        than ``keep_epoch`` (idempotent; recovery reuses it)."""
        for epoch in self.wal_epochs():
            if epoch < keep_epoch:
                shutil.rmtree(self.epoch_dir(epoch), ignore_errors=True)
        for epoch in self.checkpoint_epochs():
            if epoch < keep_epoch:
                shutil.rmtree(self.checkpoint_dir(epoch), ignore_errors=True)
        if self.checkpoints_root.is_dir():
            for entry in self.checkpoints_root.iterdir():
                if entry.name.endswith(".tmp"):
                    shutil.rmtree(entry, ignore_errors=True)

    def load_checkpoint(self, epoch: int) -> tuple[list[dict], dict]:
        """Read a committed checkpoint's partition states and offsets.

        Any damage inside a *committed* checkpoint is corruption (the
        rename happened after every blob was written and fsynced), so
        failures surface as :class:`RecoveryError`.
        """
        directory = self.checkpoint_dir(epoch)
        manifest = pickle.loads(
            unseal(
                read_bytes_retry(directory / "MANIFEST", self._injector),
                what=f"{directory.name}/MANIFEST",
            )
        )
        if manifest.get("epoch") != epoch:
            raise RecoveryError(
                f"{directory.name}: manifest epoch {manifest.get('epoch')} "
                f"does not match directory epoch {epoch}"
            )
        states = []
        for i in range(manifest["num_partitions"]):
            name = f"p{i:05d}.bin"
            path = directory / name
            if not path.exists():
                raise RecoveryError(f"{directory.name}: missing partition blob {name}")
            states.append(
                pickle.loads(
                    unseal(
                        read_bytes_retry(path, self._injector),
                        what=f"{directory.name}/{name}",
                    )
                )
            )
        offsets = pickle.loads(
            unseal(
                read_bytes_retry(directory / "offsets.bin", self._injector),
                what=f"{directory.name}/offsets.bin",
            )
        )
        return states, offsets

    # ------------------------------------------------------------------
    # Background checkpointer
    # ------------------------------------------------------------------

    def start_checkpointer(self) -> None:
        """Start the background thread that cuts threshold-triggered
        checkpoints. Transient :class:`DurabilityError` failures are
        swallowed and retried on a later tick."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self._poll_s):
                try:
                    if self.should_checkpoint():
                        self.checkpoint()
                except DurabilityError:
                    continue

        self._thread = threading.Thread(
            target=loop, name=f"checkpointer-{self.name}", daemon=True
        )
        self._thread.start()

    def stop_checkpointer(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __repr__(self) -> str:
        return f"DurableStore({self.name!r}, epochs={self.wal_epochs()})"
