"""Graceful degradation: index failures fall back to the vanilla plan."""

from __future__ import annotations

import pytest

from repro.core import create_index
from repro.core.physical import GuardedIndexExec
from repro.errors import ReproError, RetryExhaustedError
from repro.faults import FaultProfile
from repro.sql.functions import col

SCHEMA = [("id", "long"), ("name", "string"), ("age", "long")]


def make_indexed(session, rows=60):
    df = session.create_dataframe(
        [(i, f"user{i}", 20 + i % 5) for i in range(rows)], SCHEMA
    )
    return create_index(df, "id")


class TestLookupFallback:
    def test_dead_probe_degrades_to_scan(self, make_session):
        session = make_session(
            faults=FaultProfile(seed=5, index_probe_p=1.0),
            task_max_retries=0,
        )
        indexed = make_indexed(session)
        rows = indexed.get_rows(17).collect()
        assert [tuple(r) for r in rows] == [(17, "user17", 22)]
        assert session.ctx.scheduler.metrics.index_fallbacks >= 1

    def test_fallback_disabled_surfaces_the_failure(self, make_session):
        session = make_session(
            faults=FaultProfile(seed=5, index_probe_p=1.0),
            task_max_retries=0,
            index_fallback=False,
        )
        indexed = make_indexed(session)
        with pytest.raises(RetryExhaustedError):
            indexed.get_rows(17).collect()
        assert session.ctx.scheduler.metrics.index_fallbacks == 0

    def test_transient_probe_failure_heals_by_retry_not_fallback(self, make_session):
        # One injected probe death: the task retry absorbs it before the
        # guard ever considers degrading.
        session = make_session(
            faults=FaultProfile(seed=5, index_probe_p=1.0, max_fires_per_site=1),
            task_max_retries=3,
        )
        indexed = make_indexed(session)
        rows = indexed.get_rows(17).collect()
        assert [tuple(r) for r in rows] == [(17, "user17", 22)]
        metrics = session.ctx.scheduler.metrics
        assert metrics.task_retries >= 1
        assert metrics.index_fallbacks == 0

    def test_sql_equality_filter_degrades_transparently(self, make_session):
        session = make_session(
            faults=FaultProfile(seed=5, index_probe_p=1.0),
            task_max_retries=0,
        )
        indexed = make_indexed(session)
        indexed.create_or_replace_temp_view("people")
        rows = session.sql("SELECT name FROM people WHERE id = 23").collect()
        assert [tuple(r) for r in rows] == [("user23",)]
        assert session.ctx.scheduler.metrics.index_fallbacks >= 1



def guard_of(session, df):
    physical = session.planner.plan(session.optimize_plan(df))
    assert isinstance(physical, GuardedIndexExec), physical
    return physical


class TestGuardOutput:
    def test_indexed_rows_come_back_as_one_partition(self, make_session):
        session = make_session(default_parallelism=4)
        df = session.create_dataframe(
            [(i, f"user{i}", 20 + i % 5) for i in range(60)], SCHEMA
        )
        by_age = create_index(df, "age")
        rdd = guard_of(session, by_age.get_rows(22)).execute()
        assert rdd.num_partitions == 1
        assert sorted(r[0] for r in rdd.collect()) == list(range(2, 60, 5))

    def test_probe_fault_still_falls_back_to_the_vanilla_rows(self, make_session):
        session = make_session(
            faults=FaultProfile(seed=5, index_probe_p=1.0),
            task_max_retries=0,
        )
        indexed = make_indexed(session)
        guard = guard_of(session, indexed.get_rows(17))
        assert guard.execute().collect() == [(17, "user17", 22)]
        assert guard.last_error is not None
        assert session.ctx.scheduler.metrics.index_fallbacks == 1

class TestJoinFallback:
    def test_dead_join_probe_degrades_to_vanilla_join(self, make_session):
        session = make_session(
            faults=FaultProfile(seed=5, index_probe_p=1.0),
            task_max_retries=0,
        )
        indexed = make_indexed(session)
        orders = session.create_dataframe(
            [(100 + i, i % 60, float(i)) for i in range(30)],
            [("oid", "long"), ("uid", "long"), ("amount", "double")],
        )
        joined = indexed.join(orders, on=indexed.col("id") == orders.col("uid"))
        assert "IndexedJoin" in joined.explain()
        rows = sorted(tuple(r) for r in joined.collect())
        assert len(rows) == 30
        assert all(r[0] == r[4] for r in rows)  # id == uid on every row
        assert session.ctx.scheduler.metrics.index_fallbacks >= 1

    def test_join_results_match_unguarded_session(self, make_session):
        faulty = make_session(
            faults=FaultProfile(seed=5, index_probe_p=1.0), task_max_retries=0
        )
        clean = make_session()
        results = []
        for session in (faulty, clean):
            indexed = make_indexed(session)
            orders = session.create_dataframe(
                [(100 + i, (i * 7) % 60, float(i)) for i in range(40)],
                [("oid", "long"), ("uid", "long"), ("amount", "double")],
            )
            joined = indexed.join(orders, on=indexed.col("id") == orders.col("uid"))
            results.append(sorted(tuple(r) for r in joined.collect()))
        assert results[0] == results[1]


class TestPlannerResilience:
    def test_broken_injected_strategy_degrades_to_basic(self, make_session):
        session = make_session()

        def broken_strategy(plan, planner):
            raise RuntimeError("buggy extension")

        session.extensions.inject_planner_strategy(broken_strategy)
        session._rebuild_pipeline()
        df = session.create_dataframe([(1, "a"), (2, "b")], SCHEMA[:2])
        assert sorted(tuple(r) for r in df.filter(col("id") == 2).collect()) == [
            (2, "b")
        ]
        assert session.planner.strategy_failures > 0
        assert isinstance(session.planner.last_strategy_error, RuntimeError)

    def test_final_strategy_failures_propagate(self, make_session):
        session = make_session()
        df = session.create_dataframe([(1, "a")], SCHEMA[:2])
        joined = df.join(
            session.create_dataframe([(1, "b")], [("x", "long"), ("y", "string")]),
            on=df.col("id") < 9,  # no equi-keys
            how="left",
        )
        with pytest.raises(ReproError):
            joined.collect()
