"""Breaker wiring at the three guarded fault sites (DESIGN §12):
``index.fallback``, ``shuffle.fetch``, and ``wal.fsync``."""

from __future__ import annotations

import pytest

from repro.core import create_index
from repro.errors import CircuitOpenError, RetryExhaustedError
from repro.faults import FaultProfile
from repro.serving.breaker import OPEN
from repro.engine.query import QueryContext


class TestIndexFallbackBreaker:
    def test_persistent_index_failure_trips_and_skips_primary(
        self, make_serving_session
    ):
        session = make_serving_session(
            indexed=True,
            faults=FaultProfile(seed=5, index_probe_p=1.0),
            task_max_retries=0,
            serving_breaker_failures=2,
        )
        df = session.create_dataframe(
            [(i, f"u{i}") for i in range(60)],
            [("id", "long"), ("name", "string")],
        )
        indexed = create_index(df, "id")
        # Every probe dies: each guarded execution records a breaker
        # failure but still answers through the vanilla fallback.
        for _ in range(2):
            rows = indexed.get_rows(17).collect()
            assert [tuple(r) for r in rows] == [(17, "u17")]
        breaker = session.serving.breaker("index.fallback")
        assert breaker.state == OPEN
        fallbacks_before = session.ctx.scheduler.metrics.index_fallbacks
        # Open breaker: the guard skips the primary entirely (no wasted
        # probe work) and the fallback still serves the answer.
        rows = indexed.get_rows(23).collect()
        assert [tuple(r) for r in rows] == [(23, "u23")]
        assert session.ctx.scheduler.metrics.index_fallbacks == fallbacks_before + 1

    def test_healthy_index_closes_the_breaker(self, make_serving_session):
        session = make_serving_session(indexed=True)
        df = session.create_dataframe(
            [(i, f"u{i}") for i in range(60)],
            [("id", "long"), ("name", "string")],
        )
        indexed = create_index(df, "id")
        assert [tuple(r) for r in indexed.get_rows(3).collect()] == [(3, "u3")]
        breaker = session.serving.breaker("index.fallback")
        assert breaker.state == "closed"
        assert session.ctx.scheduler.metrics.index_fallbacks == 0


class TestShuffleFetchBreaker:
    def test_persistent_shuffle_loss_fails_fast(self, make_serving_session):
        # Every fetch loses a map output AND every recompute re-loses
        # it; with a 1-failure threshold the breaker opens on the first
        # fetch failure and the retry loop is cut short with a typed
        # CircuitOpenError cause instead of burning the whole budget.
        session = make_serving_session(
            faults=FaultProfile(seed=11, shuffle_loss_p=1.0),
            serving_breaker_failures=1,
        )
        df = session.create_dataframe(
            [(i % 5, i) for i in range(100)],
            [("k", "long"), ("v", "long")],
            num_partitions=4,
        )
        session.create_or_replace_temp_view("t", df)
        with pytest.raises(RetryExhaustedError) as exc:
            session.serve("SELECT k, count(*) FROM t GROUP BY k")
        assert isinstance(exc.value.cause, CircuitOpenError)
        assert session.serving.breaker("shuffle.fetch").state == OPEN

    def test_recovered_loss_records_success(self, make_serving_session):
        # A single injected loss: lineage recomputation heals it and the
        # breaker records the recovery, staying closed.
        session = make_serving_session(
            faults=FaultProfile(seed=11, shuffle_loss_p=1.0, max_fires_per_site=1),
            serving_breaker_failures=5,
        )
        df = session.create_dataframe(
            [(i % 5, i) for i in range(100)],
            [("k", "long"), ("v", "long")],
            num_partitions=4,
        )
        session.create_or_replace_temp_view("t", df)
        result = session.serve("SELECT k, count(*) AS n FROM t GROUP BY k")
        assert sorted(result.rows) == [(i, 20) for i in range(5)]
        assert session.serving.breaker("shuffle.fetch").state == "closed"


class TestWalFsyncBreaker:
    def test_wal_writer_fast_fails_when_open(self, tmp_path, clock):
        from repro.durability.wal import WALWriter
        from repro.serving.breaker import CircuitBreaker

        breaker = CircuitBreaker("wal.fsync", 1, 10.0, clock=clock)
        breaker.record_failure()  # tripped
        writer = WALWriter(tmp_path / "p.wal", breaker=breaker)
        try:
            with pytest.raises(CircuitOpenError) as exc:
                writer.append_rows([b"payload"])
            assert exc.value.site == "wal.fsync"
            # Fast-fail: nothing reached the file.
            assert writer.size_bytes() == 0
        finally:
            writer.close()

    def test_fsync_failures_trip_then_recover(self, tmp_path):
        from repro.durability.wal import WALWriter
        from repro.faults import FaultInjector
        from repro.serving.breaker import CircuitBreaker

        injector = FaultInjector(
            FaultProfile(seed=3, disk_fsync_p=1.0, max_fires_per_site=2)
        )
        breaker = CircuitBreaker("wal.fsync", 2, 0.0)
        writer = WALWriter(tmp_path / "p.wal", injector=injector, breaker=breaker)
        try:
            for _ in range(2):
                with pytest.raises(Exception):
                    writer.append_rows([b"x"])
            assert breaker.snapshot()["trips"] == 1
            # Budget exhausted (max_fires=2): the half-open probe write
            # succeeds (reset_s=0 grants it immediately) and closes the
            # breaker again.
            writer.append_rows([b"x"])
            assert breaker.state == "closed"
            assert writer.size_bytes() > 0
        finally:
            writer.close()

    def test_store_threads_breaker_to_writers(self, tmp_path, make_serving_session):
        session = make_serving_session(
            durability_enabled=True, durability_dir=str(tmp_path)
        )
        store = session.durability.store("events")
        assert store._breaker is session.serving.breaker("wal.fsync")


class TestMemoryGovernorWiring:
    def test_shuffle_write_charges_kill_oversized_query(
        self, make_serving_session
    ):
        # A tiny per-query budget: the shuffle map-output charge breaches
        # it and the charging query is killed cooperatively.
        session = make_serving_session(serving_query_memory_bytes=64)
        df = session.create_dataframe(
            [(i % 5, "x" * 50) for i in range(200)],
            [("k", "long"), ("pad", "string")],
            num_partitions=4,
        )
        session.create_or_replace_temp_view("t", df)
        from repro.errors import QueryCancelledError

        with pytest.raises(QueryCancelledError) as exc:
            session.serve("SELECT k, count(*) FROM t GROUP BY k")
        assert exc.value.reason.startswith("memory")
        stats = session.serving.stats()
        assert stats["serving"]["memory_cancelled"] == 1
        assert stats["memory"]["kills"] >= 1
        # The killed query released its charges and its slot.
        assert stats["memory"]["total_bytes"] == 0
        assert stats["admission"]["running"] == 0

    def test_static_path_never_charges(self, make_serving_session):
        # The same shuffle through .sql() (no QueryContext active)
        # bypasses the governor entirely.
        session = make_serving_session(serving_query_memory_bytes=64)
        df = session.create_dataframe(
            [(i % 5, "x" * 50) for i in range(200)],
            [("k", "long"), ("pad", "string")],
            num_partitions=4,
        )
        session.create_or_replace_temp_view("t", df)
        rows = session.sql("SELECT k, count(*) AS n FROM t GROUP BY k").collect()
        assert len(rows) == 5
        assert session.serving.stats()["memory"]["charged_bytes"] == 0


class TestQuerySlotHygiene:
    def test_cancelled_query_leaves_no_active_registration(
        self, make_serving_session
    ):
        session = make_serving_session()
        df = session.create_dataframe(
            [(i,) for i in range(20)], [("id", "long")], num_partitions=2
        )
        session.create_or_replace_temp_view("t", df)
        from repro.errors import QueryCancelledError

        for _ in range(3):
            with pytest.raises(QueryCancelledError):
                session.serve("SELECT count(*) FROM t", deadline_s=0.0)
        stats = session.serving.stats()
        assert stats["memory"]["active_queries"] == 0
        assert stats["admission"]["running"] == 0
        # The runtime's active-set is empty too.
        assert session.serving.cancel_all() == 0
