"""Bitmap state survives checkpoint + WAL recovery (PR 5 machinery)."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql.functions import col
from repro.sql.session import Session

SCHEMA = [("id", "long"), ("city", "string"), ("age", "long")]
CITIES = ["nl", "de", "us", "fr", "uk", "jp"]


def make_rows(start: int, n: int) -> list[tuple]:
    return [
        (start + i, CITIES[(start + i) % len(CITIES)], 20 + (start + i) % 5)
        for i in range(n)
    ]


def durable_session(state_dir) -> Session:
    session = Session(
        Config(
            shuffle_partitions=4,
            default_parallelism=1,
            batch_size_bytes=64 * 1024,
            durability_enabled=True,
            durability_dir=str(state_dir),
        )
    )
    enable_indexing(session)
    return session


@pytest.fixture()
def reference_rows(tmp_path):
    """Build a durable bitmap-indexed store: 120 checkpointed rows plus
    a 30-row WAL-only tail. Returns the expected city='de' rows."""
    session = durable_session(tmp_path)
    try:
        df = session.create_dataframe(make_rows(0, 120), SCHEMA)
        indexed = create_index(df, "id", durable_name="people", kind="bitmap")
        indexed = indexed.create_index("city")
        session.durability.store("people").checkpoint()
        indexed = indexed.append_rows(make_rows(1000, 30))
        expected = sorted(
            indexed.to_df().filter(col("city") == "de").collect_tuples()
        )
    finally:
        session.stop()
    assert expected
    return expected


class TestRecovery:
    def test_checkpoint_restores_attached_bitmaps(self, tmp_path, reference_rows):
        session = durable_session(tmp_path)
        try:
            empty = session.create_dataframe([], SCHEMA)
            recovered = create_index(
                empty, "id", durable_name="people", kind="bitmap"
            )
            city_ordinal = 1
            # The checkpoint image carried the per-partition bitmap
            # state: the indexes are attached before any re-acquire.
            assert any(
                partition.bitmap_index(city_ordinal) is not None
                for partition in recovered.store.partitions
            )
            handle = recovered.create_index("city")
            query = handle.to_df().filter(col("city") == "de")
            assert "bitmap_chosen=True" in query.explain()
            assert sorted(query.collect_tuples()) == reference_rows
        finally:
            session.stop()

    def test_wal_tail_rows_are_indexed_after_replay(self, tmp_path, reference_rows):
        session = durable_session(tmp_path)
        try:
            empty = session.create_dataframe([], SCHEMA)
            recovered = create_index(
                empty, "id", durable_name="people", kind="bitmap"
            ).create_index("city")
            # Rows appended after the checkpoint (replayed from the
            # WAL) must be visible through the bitmap path too.
            tail = sorted(
                recovered.to_df()
                .filter(col("city") == CITIES[1004 % len(CITIES)])
                .collect_tuples()
            )
            assert any(row[0] >= 1000 for row in tail)
            # And appends after recovery keep indexing.
            grown = recovered.append_rows([(5000, "de", 33)])
            rows = sorted(
                grown.to_df().filter(col("city") == "de").collect_tuples()
            )
            assert (5000, "de", 33) in rows
            assert len(rows) == len(reference_rows) + 1
        finally:
            session.stop()
