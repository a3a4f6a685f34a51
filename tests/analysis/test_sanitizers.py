"""Runtime sanitizers: sealed zone maps (SZ001) and CRC batch seals (SZ002)."""

import pytest

from repro.config import Config
from repro.core.partition import IndexedPartition
from repro.core.pointers import PointerLayout
from repro.core.rowbatch import HEADER_SIZE, BatchManager
from repro.errors import ReproError, SanitizerError
from repro.sql.types import StructType
from repro.stats import ZoneMap

SCHEMA = StructType.from_pairs([("id", "long"), ("name", "string")])
BATCH = 1024
MAX_ROW = 128


def make_partition(sanitizers=True):
    layout = PointerLayout.for_geometry(BATCH, MAX_ROW)
    return IndexedPartition(
        SCHEMA, 0, layout, BATCH, MAX_ROW, sanitizers=sanitizers
    )


def fill(partition, n, start=0):
    partition.append_many([(start + i, f"name{start + i}") for i in range(n)])


class TestZoneMapSealing:
    def test_sealed_zone_rejects_update(self):
        zone = ZoneMap(2)
        zone.update_row((1, "a"))
        zone.seal()
        with pytest.raises(SanitizerError, match="SZ001"):
            zone.update_row((2, "b"))
        with pytest.raises(SanitizerError, match="SZ001"):
            zone.merge(ZoneMap(2))

    def test_copy_of_sealed_zone_is_writable(self):
        zone = ZoneMap(2)
        zone.seal()
        zone.copy().update_row((1, "a"))

    def test_snapshot_zones_are_poisoned(self):
        partition = make_partition()
        fill(partition, 50)
        snap = partition.snapshot()
        with pytest.raises(SanitizerError, match="SZ001"):
            snap.zone.update_row((99, "zz"))
        with pytest.raises(SanitizerError, match="SZ001"):
            snap.batch_zones[-1].update_row((99, "zz"))

    def test_rolled_batch_zone_is_poisoned(self):
        partition = make_partition()
        fill(partition, 200)  # forces several 1 KiB batch rolls
        assert partition.batches.num_batches > 1
        zones = partition._batch_zones
        assert all(z.sealed for z in zones[:-1])
        assert not zones[-1].sealed
        with pytest.raises(SanitizerError, match="SZ001"):
            zones[0].update_row((99, "zz"))

    def test_appends_continue_after_snapshot(self):
        # Sealing snapshot copies must not poison the live tail zone.
        partition = make_partition()
        fill(partition, 30)
        snap = partition.snapshot()
        fill(partition, 30, start=30)
        assert partition.row_count == 60
        assert snap.row_count == 30

    def test_sanitizers_off_keeps_zones_writable(self):
        partition = make_partition(sanitizers=False)
        fill(partition, 50)
        snap = partition.snapshot()
        snap.zone.update_row((99, "zz"))  # tolerated (legacy behavior)


class TestBatchSeals:
    def test_crc_recorded_per_rolled_batch(self):
        partition = make_partition()
        fill(partition, 200)
        sealed = partition.batches.num_batches - 1
        assert len(partition.batches._seals) == sealed
        partition.batches.verify_seals()

    def test_tampering_with_sealed_batch_raises_sz002(self):
        partition = make_partition()
        fill(partition, 200)
        partition.batches._batches[0][HEADER_SIZE] ^= 0xFF
        with pytest.raises(SanitizerError, match="SZ002"):
            partition.batches.verify_seals()

    def test_snapshot_verifies_seals(self):
        partition = make_partition()
        fill(partition, 200)
        partition.batches._batches[0][HEADER_SIZE] ^= 0xFF
        with pytest.raises(SanitizerError, match="SZ002"):
            partition.snapshot()

    def test_unsanitized_manager_records_nothing(self):
        layout = PointerLayout.for_geometry(BATCH, MAX_ROW)
        manager = BatchManager(layout, BATCH)
        for i in range(200):
            manager.append(b"x" * 20)
        assert manager._seals == []
        manager.verify_seals()  # no-op


class TestErrorHierarchy:
    def test_sanitizer_error_is_not_a_repro_error(self):
        # The retry/fallback machinery catches ReproError; a sanitizer
        # trip must never be absorbed by it.
        assert not issubclass(SanitizerError, ReproError)
        err = SanitizerError("SZ001", "boom")
        assert err.rule == "SZ001"
        assert "[SZ001]" in str(err)

    def test_config_flag_defaults_off_and_threads_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZERS", raising=False)
        assert Config().sanitizers_enabled is False
        config = Config().with_options(sanitizers_enabled=True)
        assert config.sanitizers_enabled is True

    def test_env_var_flips_default_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZERS", "1")
        assert Config().sanitizers_enabled is True
        # An explicit argument still wins.
        assert Config(sanitizers_enabled=False).sanitizers_enabled is False


class TestSessionIntegration:
    def test_indexed_queries_run_sanitized(self):
        from repro.core import create_index, enable_indexing
        from repro.sql.session import Session

        session = Session(
            Config(
                shuffle_partitions=2,
                default_parallelism=2,
                batch_size_bytes=2048,
                max_row_bytes=256,
                sanitizers_enabled=True,
            )
        )
        enable_indexing(session)
        try:
            df = session.create_dataframe(
                [(i, f"name{i}", 20 + i % 5) for i in range(300)],
                [("id", "long"), ("name", "string"), ("age", "long")],
            )
            indexed = create_index(df, "id")
            for version in range(3):
                indexed = indexed.append_rows(
                    [(1000 + version * 10 + j, "new", 99) for j in range(10)]
                )
            assert indexed.count() == 330
            assert len(indexed.get_rows(5).collect()) == 1
            filtered = indexed.to_df().filter("age > 22").collect()
            assert all(row[2] > 22 for row in filtered)
        finally:
            session.stop()
