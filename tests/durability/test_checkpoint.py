"""Tests for DurableStore: layout, checkpoint commit protocol, GC."""

from __future__ import annotations

import pytest

from repro.core import create_index
from repro.durability import CURRENT_FILE, DurableStore
from repro.errors import DurabilityError, RecoveryError
from repro.faults import FaultInjector, FaultProfile

SCHEMA = [("id", "long"), ("name", "string")]


def build(session, rows, name="t"):
    df = session.create_dataframe(rows, SCHEMA)
    return create_index(df, "id", durable_name=name)


def some_rows(n, base=0):
    return [(base + i, f"v{base + i}") for i in range(n)]


class TestLayout:
    def test_initialize_writes_meta(self, make_session, state_dir):
        session = make_session()
        build(session, some_rows(10))
        store = session.durability.store("t")
        assert store.exists()
        meta = store.read_meta()
        assert meta["num_partitions"] == 4
        assert meta["key_ordinal"] == 0
        assert [f[0] for f in meta["schema"]] == ["id", "name"]
        assert (state_dir / "t" / "wal" / "e00000000").is_dir()

    def test_store_name_validation(self, make_session):
        session = make_session()
        for bad in ("", "../escape", ".hidden", "a/b"):
            with pytest.raises(DurabilityError):
                session.durability.store(bad)

    def test_rebinding_existing_store_is_refused(self, make_session):
        session = make_session()
        indexed = build(session, some_rows(5))
        with pytest.raises(DurabilityError):
            session.durability.make_durable(indexed, "t")

    def test_wal_grows_with_appends(self, make_session):
        session = make_session()
        indexed = build(session, some_rows(10))
        store = session.durability.store("t")
        before = store.wal_bytes()
        indexed.append_rows(some_rows(10, base=100))
        assert store.wal_bytes() > before


class TestCheckpointCommit:
    def test_checkpoint_swings_current_and_retires_wal(self, make_session, state_dir):
        session = make_session()
        build(session, some_rows(20))
        store = session.durability.store("t")
        assert store.current_checkpoint_epoch() is None
        epoch = store.checkpoint()
        assert store.current_checkpoint_epoch() == epoch
        assert store.checkpoint_epochs() == [epoch]
        assert store.wal_epochs() == [epoch]  # older epochs deleted
        assert store.wal_bytes() == 0  # fresh segments
        assert (state_dir / "t" / CURRENT_FILE).exists()

    def test_appends_continue_after_checkpoint(self, make_session):
        session = make_session()
        indexed = build(session, some_rows(10))
        store = session.durability.store("t")
        store.checkpoint()
        indexed.append_rows(some_rows(10, base=50))
        assert store.wal_bytes() > 0

    def test_second_checkpoint_supersedes_first(self, make_session):
        session = make_session()
        indexed = build(session, some_rows(10))
        store = session.durability.store("t")
        first = store.checkpoint()
        indexed.append_rows(some_rows(5, base=50))
        second = store.checkpoint()
        assert second > first
        assert store.checkpoint_epochs() == [second]
        assert store.wal_epochs() == [second]

    def test_failed_checkpoint_burns_its_epoch(self, make_session):
        """A transient failure mid-checkpoint must not let a retry mix
        rotated-and-already-exported rows back into a live segment."""
        session = make_session()
        build(session, some_rows(30))
        store = session.durability.store("t")
        # Arm the fault after the load so it hits the checkpoint itself.
        store._injector = FaultInjector(
            FaultProfile(seed=11, disk_fsync_p=1.0, max_fires_per_site=1)
        )
        with pytest.raises(DurabilityError):
            store.checkpoint()
        assert store.current_checkpoint_epoch() is None  # not committed
        epoch = store.checkpoint()  # retry works, on a fresh epoch
        assert epoch == 2
        recovered = make_session().durability.recover("t")
        assert recovered.count() == 30

    def test_checkpoint_is_recoverable_without_wal_replay(self, make_session):
        session = make_session()
        build(session, some_rows(25))
        session.durability.store("t").checkpoint()
        recovered = make_session().durability.recover("t")
        assert recovered.count() == 25
        assert recovered.get_rows_local(7) == [(7, "v7")]


class TestCorruptionDetection:
    def test_damaged_current_raises_recovery_error(self, make_session, state_dir):
        session = make_session()
        build(session, some_rows(10))
        session.durability.store("t").checkpoint()
        (state_dir / "t" / CURRENT_FILE).write_bytes(b"garbage-not-a-seal")
        with pytest.raises(RecoveryError):
            make_session().durability.recover("t")

    def test_dangling_current_raises_recovery_error(self, make_session, state_dir):
        import shutil

        session = make_session()
        build(session, some_rows(10))
        epoch = session.durability.store("t").checkpoint()
        shutil.rmtree(state_dir / "t" / "checkpoints" / f"ckpt-{epoch:08d}")
        with pytest.raises(RecoveryError):
            make_session().durability.recover("t")

    def test_bitrot_in_committed_blob_raises_recovery_error(
        self, make_session, state_dir
    ):
        session = make_session()
        build(session, some_rows(10))
        epoch = session.durability.store("t").checkpoint()
        blob = state_dir / "t" / "checkpoints" / f"ckpt-{epoch:08d}" / "p00000.bin"
        data = bytearray(blob.read_bytes())
        data[-1] ^= 0xFF
        blob.write_bytes(bytes(data))
        with pytest.raises(RecoveryError):
            make_session().durability.recover("t")

    def test_recovery_error_is_not_absorbable(self):
        from repro.errors import ReproError

        assert not issubclass(RecoveryError, ReproError)


class TestOffsets:
    def test_log_offsets_survive_checkpoint(self, make_session):
        session = make_session()
        build(session, some_rows(5))
        store = session.durability.store("t")
        store.log_offsets("g", "topic", {0: 7})
        store.checkpoint()
        store.log_offsets("g", "topic", {0: 9, 1: 3})
        recovered_store = make_session()
        recovered_store.durability.recover("t")
        offsets = recovered_store.durability.store("t").offsets()
        assert offsets == {("g", "topic"): {0: 9, 1: 3}}

    def test_in_memory_fold_is_advance_only(self, make_session):
        session = make_session()
        build(session, some_rows(5))
        store = session.durability.store("t")
        store.log_offsets("g", "t1", {0: 9})
        store.log_offsets("g", "t1", {0: 4})
        assert store.offsets() == {("g", "t1"): {0: 9}}


class TestBackgroundCheckpointer:
    def test_size_threshold_triggers_checkpoint(self, make_session):
        import time

        session = make_session(wal_checkpoint_bytes=256)
        indexed = build(session, some_rows(30))
        store = session.durability.store("t")
        indexed.append_rows(some_rows(30, base=100))
        deadline = time.monotonic() + 5.0
        while store.current_checkpoint_epoch() is None:
            assert time.monotonic() < deadline, "checkpointer never fired"
            time.sleep(0.01)
        assert make_session().durability.recover("t").count() == 60

    def test_age_threshold_triggers_checkpoint(self, make_session):
        import time

        session = make_session(wal_checkpoint_age_s=0.02)
        build(session, some_rows(10))
        store = session.durability.store("t")
        deadline = time.monotonic() + 5.0
        while store.current_checkpoint_epoch() is None:
            assert time.monotonic() < deadline, "checkpointer never fired"
            time.sleep(0.01)

    def test_idle_store_is_not_checkpointed(self, make_session):
        import time

        session = make_session(wal_checkpoint_age_s=0.02)
        build(session, some_rows(10))
        store = session.durability.store("t")
        deadline = time.monotonic() + 5.0
        while store.current_checkpoint_epoch() is None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        first = store.current_checkpoint_epoch()
        time.sleep(0.1)  # several age windows with an empty WAL
        assert store.current_checkpoint_epoch() == first
