"""A durable table on the process backend.

Every partition snapshot of a durable table crosses to the workers as a
shared-memory segment, like any other table's. The answers must match
the in-process run row for row: point lookups, a bitmap-chosen equality
filter, a filter with ``count()``, and an older version still held after
a later append.
"""

from __future__ import annotations

import glob
import os

from repro.core import create_index, enable_indexing
from repro.sql.functions import col
from repro.sql.session import Session
from tests.durability.conftest import durable_config

SCHEMA = [("id", "long"), ("city", "string"), ("age", "long")]
#: Twenty cities: one city is 5 % of the rows, selective enough for the
#: planner to choose its bitmap.
CITIES = [f"c{i:02d}" for i in range(20)]
#: Keys from the checkpointed prefix, the WAL-only tail, the last append,
#: and one that was never written.
KEYS = (7, 1003, 5004, 99999)


def make_rows(start: int, n: int) -> list[tuple]:
    return [
        (key, CITIES[key % len(CITIES)], 20 + key % 7)
        for key in range(start, start + n)
    ]


def _answers(state_dir, executors: int) -> tuple[dict, int]:
    """Every answer of the workload, and the shared-memory segments
    live after it (0 in process)."""
    session = Session(
        durable_config(
            state_dir,
            executors=executors,
            default_parallelism=4,
            shuffle_partitions=4,
        )
    )
    try:
        enable_indexing(session)
        df = session.create_dataframe(make_rows(0, 600), SCHEMA)
        indexed = create_index(
            df, "id", durable_name="people", kind="bitmap"
        ).create_index("city")
        session.durability.store("people").checkpoint()
        # The tail lives only in the WAL; `older` stays held while a
        # later append mints the latest version.
        older = indexed.append_rows(make_rows(1000, 200))
        latest = older.append_rows(make_rows(5000, 100))
        # The loads ran their ingest closures on the driver; no query may.
        fallbacks = session.ctx.backend.stats().get("codec_fallbacks")
        equality = latest.to_df().filter(col("city") == "c03")
        answers = {
            "get_rows": [
                sorted(latest.get_rows(key).collect_tuples()) for key in KEYS
            ],
            "bitmap_chosen": "bitmap_chosen=True" in equality.explain(),
            "bitmap_filter": sorted(equality.collect_tuples()),
            "filter_count": latest.to_df().filter(col("age") > 24).count(),
            "older_get_rows": [
                sorted(older.get_rows(key).collect_tuples()) for key in KEYS
            ],
            "older_filter": sorted(
                older.to_df().filter(col("city") == "c03").collect_tuples()
            ),
            "older_count": older.to_df().filter(col("age") > 24).count(),
        }
        segments = 0
        if executors:
            stats = session.ctx.backend.stats()
            assert stats["tasks_dispatched"] > 0
            assert stats["codec_fallbacks"] == fallbacks
            assert stats["workers_lost"] == 0
            segments = stats["shm_segments"]
    finally:
        session.stop()
    return answers, segments


def test_durable_table_matches_in_process_on_two_workers(tmp_path):
    expected, _ = _answers(tmp_path / "local", executors=0)
    actual, segments = _answers(tmp_path / "cluster", executors=2)
    assert actual == expected
    assert expected["bitmap_chosen"]
    assert len(expected["bitmap_filter"]) == 45
    assert expected["get_rows"][-1] == []
    assert expected["older_get_rows"][2] == []
    assert expected["older_filter"] != expected["bitmap_filter"]
    # The durable snapshots crossed as segments, and stop() unlinked them.
    assert segments > 0
    assert glob.glob(f"/dev/shm/repro_{os.getpid()}_*") == []
