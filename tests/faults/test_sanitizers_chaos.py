"""Chaos suite with runtime sanitizers armed.

The fault-tolerance machinery retries tasks, recomputes lineage, and
replays ingest batches. None of that may ever mutate sealed MVCC state:
a retry that re-appended into a sealed batch or folded rows into a
snapshot-shared zone map would corrupt every snapshot taken before the
fault. With ``sanitizers_enabled=True`` such a write raises
``SanitizerError`` (which is deliberately *not* a ``ReproError``, so no
retry/fallback layer can absorb it) — a run that completes with correct
results therefore proves recovery never touched sealed state.
"""

from __future__ import annotations

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.faults import chaos_profile
from repro.sql.session import Session
from repro.streaming import Broker, IndexedIngest, Producer

SCHEMA = [("id", "long"), ("name", "string"), ("age", "long")]


def run_sanitized_pipeline(faults):
    config = Config(
        shuffle_partitions=4,
        default_parallelism=2,
        broadcast_threshold=50,
        task_max_retries=8,
        retry_backoff_s=0.0005,
        batch_size_bytes=2048,  # small batches: many seal boundaries
        max_row_bytes=256,
        sanitizers_enabled=True,
        faults=faults,
    )
    session = Session(config)
    enable_indexing(session)
    try:
        injector = session.ctx.fault_injector
        broker = Broker(injector)
        broker.create_topic("updates", partitions=3)

        people = session.create_dataframe(
            [(i, f"user{i}", 20 + i % 7) for i in range(200)], SCHEMA
        )
        indexed = create_index(people, "id")
        snapshots = [indexed]

        Producer(broker, "updates").send_all(
            [(1000 + i, f"new{i}", 30 + i % 5) for i in range(120)],
            key_fn=lambda row: row[0],
        )
        ingest = IndexedIngest(
            broker, "updates", indexed, batch_size=25,
            max_retries=8, backoff_s=0.0005,
            on_batch=lambda df, _rows: snapshots.append(df),
        )
        ingested = ingest.drain()
        current = ingest.current

        results = {
            "ingested": ingested,
            "count": current.count(),
            "lookups": [
                [tuple(r) for r in current.get_rows(key).collect()]
                for key in (3, 42, 1005, 1119, 99999)
            ],
            # Old versions must still read clean after every retry storm.
            "first_version_count": snapshots[0].count(),
        }

        # Every partition's seals must still verify.
        for store_version in current.store.partitions:
            store_version.batches.verify_seals()
        return results, injector.stats()
    finally:
        session.stop()


def test_chaos_run_with_sanitizers_matches_clean_run():
    clean, clean_stats = run_sanitized_pipeline(faults=None)
    chaotic, chaos_stats = run_sanitized_pipeline(faults=chaos_profile(seed=1337))
    assert clean_stats == {}
    assert chaos_stats, "chaos profile never injected a fault"
    # No SanitizerError surfaced (the runs completed) and results match.
    assert chaotic == clean
    assert clean["ingested"] == 120
    assert clean["count"] == 320
    assert clean["first_version_count"] == 200
