"""Tests for RecoveryManager: restart semantics, MVCC, streaming."""

from __future__ import annotations

import pytest

from repro.core import create_index
from repro.core.partition import IndexedPartition
from repro.core.pointers import PointerLayout
from repro.errors import IndexError_
from repro.sql.types import LongType, StringType, StructField, StructType
from repro.streaming import Broker, IndexedIngest, Producer

SCHEMA = [("id", "long"), ("name", "string")]


def build(session, rows, name="t"):
    df = session.create_dataframe(rows, SCHEMA)
    return create_index(df, "id", durable_name=name)


def some_rows(n, base=0):
    return [(base + i, f"v{base + i}") for i in range(n)]


class TestBasicRecovery:
    def test_missing_store_recovers_to_none(self, make_session):
        assert make_session().durability.recover("nothing") is None

    def test_wal_only_recovery(self, make_session):
        build(make_session(), some_rows(40))
        recovered = make_session().durability.recover("t")
        assert recovered.count() == 40
        assert sorted(recovered.scan_tuples()) == sorted(some_rows(40))

    def test_checkpoint_plus_wal_recovery(self, make_session):
        session = make_session()
        indexed = build(session, some_rows(20))
        session.durability.store("t").checkpoint()
        indexed.append_rows(some_rows(15, base=100))
        recovered = make_session().durability.recover("t")
        assert recovered.count() == 35
        assert recovered.get_rows_local(5) == [(5, "v5")]
        assert recovered.get_rows_local(110) == [(110, "v110")]

    def test_backward_chains_survive(self, make_session):
        """Multiple rows per key come back newest-first, across the
        checkpoint/WAL boundary."""
        session = make_session()
        indexed = build(session, [(1, "oldest"), (1, "older")])
        session.durability.store("t").checkpoint()
        indexed.append_rows([(1, "newest")])
        recovered = make_session().durability.recover("t")
        assert recovered.get_rows_local(1) == [
            (1, "newest"),
            (1, "older"),
            (1, "oldest"),
        ]
        assert recovered.lookup_latest(1) == (1, "newest")

    def test_create_index_recovers_existing_store(self, make_session):
        build(make_session(), some_rows(30))
        session = make_session()
        # Same durable_name: the on-disk state wins over the (different)
        # DataFrame passed in.
        df = session.create_dataframe(some_rows(3, base=900), SCHEMA)
        recovered = create_index(df, "id", durable_name="t")
        assert recovered.count() == 30
        assert recovered.get_rows_local(900) == []

    def test_recovery_is_repeatable(self, make_session):
        build(make_session(), some_rows(25))
        first = make_session().durability.recover("t")
        second = make_session().durability.recover("t")
        assert sorted(first.scan_tuples()) == sorted(second.scan_tuples())

    def test_appends_after_recovery_are_durable(self, make_session):
        build(make_session(), some_rows(10))
        middle = make_session()
        recovered = middle.durability.recover("t")
        recovered.append_rows(some_rows(10, base=500))
        final = make_session().durability.recover("t")
        assert final.count() == 20
        assert final.get_rows_local(505) == [(505, "v505")]

    def test_queries_work_after_recovery(self, make_session):
        build(make_session(), some_rows(30))
        recovered = make_session().durability.recover("t")
        df = recovered.to_df()
        out = df.filter(df.col("id") < 5).collect()
        assert len(out) == 5


class TestEngineStateAfterRecovery:
    def test_mvcc_versions_isolate_over_recovered_store(self, make_session):
        build(make_session(), some_rows(10))
        session = make_session()
        v1 = session.durability.recover("t")
        v2 = v1.append_rows(some_rows(5, base=100))
        assert v1.count() == 10  # old handle keeps its snapshot
        assert v2.count() == 15

    def test_recovery_invalidates_block_cache(self, make_session):
        session = make_session()
        session.ctx.block_manager.put(("stale", 0), [1, 2, 3])
        build(make_session(), some_rows(5))
        session.durability.recover("t")
        stats = session.ctx.block_manager.stats.snapshot()
        assert stats["recovery_invalidations"] == 1
        assert session.ctx.block_manager.get(("stale", 0)) is None

    def test_zone_maps_rebuilt_for_pruning(self, make_session):
        session = make_session()
        build(session, some_rows(50))
        session.durability.store("t").checkpoint()
        recovered = make_session().durability.recover("t")
        for snapshot in recovered.version.snapshots:
            assert snapshot.zone.rows == len(snapshot)

    @pytest.mark.parametrize("damage", ["stripped", "one_batch_short"])
    def test_checkpoint_state_without_zones_rebuilds_them(self, damage):
        """A checkpoint state whose zones are missing, or do not cover
        every restored batch, gets its zones recomputed from the rows."""
        schema = StructType(
            [
                StructField("id", LongType(), nullable=False),
                StructField("v", StringType()),
            ]
        )
        layout = PointerLayout.for_geometry(1024, 256)
        live = IndexedPartition(schema, 0, layout, 1024, 256)
        live.append_many(
            [(i, None if i % 7 == 0 else f"v{i:03d}") for i in range(200)]
        )
        state = live.export_state()
        assert len(state["batch_zones"]) > 2  # several batches to rebuild
        if damage == "stripped":
            state = {
                k: v for k, v in state.items() if k not in ("batch_zones", "zone")
            }
        else:
            state = dict(state, batch_zones=state["batch_zones"][:-1])
        restored = IndexedPartition.from_state(
            schema, 0, layout, 1024, 256, state
        ).snapshot()
        expected = live.snapshot()

        def summary(zone):
            return zone.rows, [(c.min, c.max, c.nulls) for c in zone.columns]

        assert [summary(z) for z in restored.batch_zones] == [
            summary(z) for z in expected.batch_zones
        ]
        assert summary(restored.zone) == summary(expected.zone)

    def test_sanitized_recovery_reseals_batches(self, make_session):
        session = make_session(sanitizers_enabled=True)
        indexed = build(session, some_rows(40))
        session.durability.store("t").checkpoint()
        indexed.append_rows(some_rows(10, base=100))
        recovered = make_session(sanitizers_enabled=True).durability.recover("t")
        # snapshot() runs verify_seals() under sanitizers — it must hold
        # on restored batches, and appends must keep working.
        after = recovered.append_rows(some_rows(5, base=200))
        assert after.count() == 55

    def test_durable_store_plumbed_through_versioned_store(self, make_session):
        session = make_session()
        indexed = build(session, some_rows(5))
        assert indexed.store.durable_store is session.durability.store("t")
        recovered = make_session().durability.recover("t")
        assert recovered.store.durable_store is not None


class TestDisabledByDefault:
    def test_sessions_carry_no_durability_by_default(self, tmp_path):
        from repro.config import Config
        from repro.sql.session import Session

        session = Session(Config(durability_enabled=False))
        try:
            assert session.durability is None
        finally:
            session.stop()

    def test_durable_name_requires_the_flag(self, tmp_path):
        from repro.config import Config
        from repro.sql.session import Session

        session = Session(Config(durability_enabled=False))
        try:
            df = session.create_dataframe(some_rows(3), SCHEMA)
            with pytest.raises(IndexError_):
                create_index(df, "id", durable_name="t")
        finally:
            session.stop()

    def test_no_state_dir_created_without_durable_name(
        self, make_session, state_dir
    ):
        session = make_session()
        df = session.create_dataframe(some_rows(3), SCHEMA)
        create_index(df, "id")  # durability on, but unnamed index
        assert not (state_dir / "t").exists()


class TestStreamingRecovery:
    def make_world(self, session, records):
        broker = Broker()
        broker.create_topic("rows", partitions=2)
        Producer(broker, "rows").send_all(records, key_fn=lambda r: r[0])
        return broker

    def test_committed_batches_dedupe_after_restart(self, make_session):
        records = [(100 + i, f"s{i}") for i in range(40)]
        session = make_session()
        broker = self.make_world(session, records)
        indexed = build(session, some_rows(10))
        ingest = IndexedIngest(broker, "rows", indexed, batch_size=25)
        ingest.step()  # 25 rows applied, watermark logged, committed
        # --- process dies; restart with a fresh broker incarnation that
        # holds the same log (Kafka survives; its committed offsets for
        # our group are restored from the durable watermark).
        session2 = make_session()
        broker2 = self.make_world(session2, records)
        recovered = session2.durability.recover("t", broker=broker2)
        assert recovered.count() == 35  # 10 base + 25 applied
        ingest2 = IndexedIngest(broker2, "rows", recovered, batch_size=25)
        ingest2.drain()
        final = ingest2.current
        # Exactly once: the first 25 were not re-applied.
        assert final.count() == 50
        assert len(list(final.scan_tuples())) == len(set(final.scan_tuples()))

    def test_restored_offsets_are_advance_only_on_broker(self, make_session):
        records = [(100 + i, "x") for i in range(10)]
        session = make_session()
        broker = self.make_world(session, records)
        indexed = build(session, some_rows(2))
        ingest = IndexedIngest(broker, "rows", indexed, batch_size=50)
        ingest.drain()
        session2 = make_session()
        broker2 = self.make_world(session2, records)
        # The new broker already has *newer* commits for the group (e.g.
        # another consumer advanced it); restore must not rewind them.
        newer = {p: 99 for p in range(2)}
        broker2.commit_offsets("ingest", "rows", newer)
        session2.durability.recover("t", broker=broker2)
        assert broker2.committed_offsets("ingest", "rows") == newer
