"""End-to-end chaos acceptance: the full ingest + query pipeline under
the standard fault mix must produce results identical to a fault-free
run — the paper's demo workload, made crash-tolerant."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.errors import RetryExhaustedError
from repro.faults import chaos_profile
from repro.sql.session import Session
from repro.streaming import Broker, IndexedIngest, Producer

PEOPLE_SCHEMA = [("id", "long"), ("name", "string"), ("age", "long")]
ORDER_SCHEMA = [("oid", "long"), ("uid", "long"), ("amount", "double")]


def run_pipeline(faults=None, task_max_retries=8, ingest_max_retries=8):
    """Build an indexed table, stream updates into it through a broker
    sharing the session's fault injector, then query it every way the
    demo does. Returns (results, injector fire stats)."""
    config = Config(
        shuffle_partitions=4,
        default_parallelism=2,
        broadcast_threshold=50,
        task_max_retries=task_max_retries,
        retry_backoff_s=0.0005,
        faults=faults,
    )
    session = Session(config)
    enable_indexing(session)
    try:
        injector = session.ctx.fault_injector
        broker = Broker(injector)
        broker.create_topic("updates", partitions=3)

        people = session.create_dataframe(
            [(i, f"user{i}", 20 + i % 7) for i in range(200)], PEOPLE_SCHEMA
        )
        indexed = create_index(people, "id")

        Producer(broker, "updates").send_all(
            [(1000 + i, f"new{i}", 30 + i % 5) for i in range(120)],
            key_fn=lambda row: row[0],
        )
        ingest = IndexedIngest(
            broker, "updates", indexed, batch_size=25,
            max_retries=ingest_max_retries, backoff_s=0.0005,
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
        }
        orders = session.create_dataframe(
            [(500 + i, (i * 13) % 1300, float(i % 17)) for i in range(80)],
            ORDER_SCHEMA,
        )
        joined = current.join(orders, on=current.col("id") == orders.col("uid"))
        results["join"] = sorted(tuple(r) for r in joined.collect())

        current.create_or_replace_temp_view("people")
        results["sql"] = sorted(
            tuple(r)
            for r in session.sql(
                "SELECT age, COUNT(*) FROM people GROUP BY age"
            ).collect()
        )
        return results, injector.stats()
    finally:
        session.stop()


class TestChaosInvariant:
    def test_chaotic_run_equals_fault_free_run(self):
        clean, clean_stats = run_pipeline(faults=None)
        chaotic, chaos_stats = run_pipeline(faults=chaos_profile(seed=1337))
        assert clean_stats == {}
        assert chaos_stats, "chaos profile never injected a fault"
        assert chaotic == clean

    def test_fault_free_run_is_sane(self):
        results, _ = run_pipeline(faults=None)
        assert results["ingested"] == 120
        assert results["count"] == 320
        assert results["lookups"][0] == [(3, "user3", 23)]
        assert results["lookups"][2] == [(1005, "new5", 30)]
        assert results["lookups"][4] == []  # absent key
        # uid = 13*i hits stored ids (0..199, 1000..1119) for
        # i in 0..15 and i in 77..79 → 19 matches.
        assert len(results["join"]) == 19
        assert sum(n for _, n in results["sql"]) == 320

    def test_chaos_with_retries_disabled_fails_loudly(self):
        with pytest.raises(RetryExhaustedError):
            run_pipeline(
                faults=chaos_profile(seed=1337),
                task_max_retries=0,
                ingest_max_retries=0,
            )
