"""Session.serve(): the end-to-end governed query path."""

from __future__ import annotations

import threading

import pytest

from repro.config import Config
from repro.errors import (
    AnalysisError,
    QueryCancelledError,
    QueryRejectedError,
)
from repro.engine.query import QueryContext
from repro.sql.session import Session


class TestServePath:
    def test_serve_matches_sql_collect(self, serving_session):
        served = serving_session.serve(
            "SELECT bucket, count(*) AS n FROM rows GROUP BY bucket"
        )
        direct = serving_session.sql(
            "SELECT bucket, count(*) AS n FROM rows GROUP BY bucket"
        ).collect()
        assert sorted(served.rows) == sorted(tuple(r) for r in direct)
        assert served.elapsed_s >= 0
        assert len(served) == len(direct)

    def test_expired_deadline_cancels(self, serving_session):
        with pytest.raises(QueryCancelledError) as exc:
            serving_session.serve("SELECT count(*) FROM rows", deadline_s=0.0)
        assert exc.value.reason == "deadline"
        snap = serving_session.serving.stats()["serving"]
        assert snap["deadline_cancelled"] == 1

    def test_slot_released_after_every_outcome(self, serving_session):
        serving_session.serve("SELECT count(*) FROM rows")
        with pytest.raises(QueryCancelledError):
            serving_session.serve("SELECT count(*) FROM rows", deadline_s=0.0)
        admission = serving_session.serving.admission.snapshot()
        assert admission["running"] == 0
        assert admission["queued"] == 0

    def test_overload_sheds_with_retry_after(self, make_serving_session):
        session = make_serving_session(
            serving_max_concurrent=1,
            serving_queue_depth=0,
            serving_queue_timeout_s=0.05,
        )
        df = session.create_dataframe(
            [(i,) for i in range(10)], [("id", "long")], num_partitions=2
        )
        session.create_or_replace_temp_view("t", df)
        # Occupy the only slot, then the next serve is shed (zero-depth
        # queue: no waiting allowed).
        holder = QueryContext.create()
        session.serving.admission.admit(holder)
        try:
            with pytest.raises(QueryRejectedError) as exc:
                session.serve("SELECT count(*) FROM t")
            assert exc.value.retry_after_s > 0
        finally:
            session.serving.admission.release(holder)
        # Load drained: the same query now succeeds.
        assert session.serve("SELECT count(*) FROM t").rows == [(10,)]

    def test_query_beside_another_hands_over_the_gil_once(
        self, serving_session, monkeypatch
    ):
        sleeps: list[float] = []
        monkeypatch.setattr("repro.serving.runtime.time.sleep", sleeps.append)
        serving_session.serve("SELECT count(*) FROM rows")
        assert sleeps == []  # a lone query never sleeps
        runtime = serving_session.serving
        other = QueryContext.create()
        runtime._active[other.query_id] = other  # another query executing
        try:
            assert serving_session.serve("SELECT count(*) FROM rows").rows == [(400,)]
        finally:
            runtime._active.pop(other.query_id)
        assert sleeps == [0]

    def test_concurrent_serves_all_complete(self, serving_session):
        results: list = []
        errors: list = []

        def worker() -> None:
            try:
                results.append(
                    serving_session.serve("SELECT count(*) FROM rows").rows
                )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        # Capacity (4 slots, 16 queue depth, 0.2s timeout) may shed some
        # under scheduling jitter, but whatever was admitted finished
        # correctly and nothing hung.
        assert all(r == [(400,)] for r in results)
        assert all(isinstance(e, QueryRejectedError) for e in errors)
        admission = serving_session.serving.admission.snapshot()
        assert admission["running"] == 0


class TestDisabledIsInert:
    def test_serve_raises_when_disabled(self):
        session = Session(Config())
        try:
            assert session.serving is None
            assert session.ctx.serving is None
            assert session.ctx.scheduler.serving is None
            with pytest.raises(AnalysisError, match="serving is disabled"):
                session.serve("SELECT 1 AS one FROM t")
        finally:
            session.stop()

    def test_default_config_keeps_flag_off(self):
        assert Config().serving_enabled is False


class TestStats:
    def test_stats_shape(self, serving_session):
        serving_session.serve("SELECT count(*) FROM rows")
        stats = serving_session.serving.stats()
        assert set(stats) == {
            "serving", "admission", "memory", "breakers", "index_sharing",
        }
        assert stats["serving"]["submitted"] == 1
        assert stats["serving"]["completed"] == 1
        assert stats["admission"]["admitted"] == 1
        assert stats["memory"]["active_queries"] == 0

    def test_cancel_all_cancels_in_flight(self, serving_session):
        release = threading.Event()
        entered = threading.Event()
        outcome: list = []

        # Pin a query in the running set by holding it on a thread that
        # waits inside execution (simulated by a cooperative barrier in
        # the admission queue is too early; use a long deadline and
        # cancel_all while it waits on admission of a second query).
        def worker() -> None:
            try:
                entered.set()
                outcome.append(serving_session.serve("SELECT count(*) FROM rows"))
            except BaseException as exc:  # noqa: BLE001
                outcome.append(exc)
            finally:
                release.set()

        thread = threading.Thread(target=worker)
        thread.start()
        entered.wait(2.0)
        thread.join(timeout=10.0)
        assert release.is_set()
        # cancel_all on an idle runtime is a no-op returning 0.
        assert serving_session.serving.cancel_all() == 0
