"""Tests for Session, Catalog, and extension wiring."""

from __future__ import annotations

import pytest

from repro.errors import AnalysisError, SchemaError
from repro.sql.logical import LogicalPlan
from repro.sql.physical import PhysicalPlan


class TestCreateDataFrame:
    def test_from_tuples(self, session):
        df = session.create_dataframe([(1, "a")], [("id", "long"), ("v", "string")])
        assert df.collect()[0].as_dict() == {"id": 1, "v": "a"}

    def test_from_dicts(self, session):
        df = session.create_dataframe(
            [{"id": 1, "v": "a"}, {"v": "b", "id": 2}],
            [("id", "long"), ("v", "string")],
        )
        assert [r["id"] for r in df.collect()] == [1, 2]

    def test_dict_missing_key_becomes_null(self, session):
        df = session.create_dataframe([{"id": 1}], [("id", "long"), ("v", "string")])
        assert df.collect()[0]["v"] is None

    def test_validation_rejects_bad_rows(self, session):
        with pytest.raises(SchemaError):
            session.create_dataframe([("not-long",)], [("id", "long")])

    def test_validation_can_be_skipped(self, session):
        df = session.create_dataframe(
            [("oops",)], [("id", "long")], validate=False
        )
        assert df.count() == 1

    def test_partitioning_respected(self, session):
        df = session.create_dataframe(
            [(i,) for i in range(100)], [("x", "long")], num_partitions=7
        )
        rdd = df._execute()
        assert rdd.num_partitions == 7


class TestCatalog:
    def test_register_and_lookup(self, session, people_df):
        session.create_or_replace_temp_view("folks", people_df)
        assert session.table("folks").count() == 5
        assert "folks" in session.catalog.names()

    def test_lookup_case_insensitive(self, session, people_df):
        people_df.create_or_replace_temp_view("Folks")
        assert session.table("FOLKS").count() == 5

    def test_replace_view(self, session, people_df, orders_df):
        people_df.create_or_replace_temp_view("t")
        orders_df.create_or_replace_temp_view("t")
        assert session.table("t").columns == ["oid", "pid", "amount"]

    def test_drop(self, session, people_df):
        people_df.create_or_replace_temp_view("t")
        assert session.catalog.drop("t")
        assert not session.catalog.drop("t")
        with pytest.raises(AnalysisError):
            session.table("t")

    def test_view_of_derived_plan(self, session, people_df):
        from repro.sql.functions import col

        people_df.filter(col("age") > 26).create_or_replace_temp_view("elders")
        assert session.sql("SELECT count(*) AS n FROM elders").collect()[0]["n"] == 3

    def test_table_used_twice_gets_fresh_ids(self, session, people_df):
        people_df.create_or_replace_temp_view("p")
        df = session.sql(
            "SELECT a.id AS x, b.id AS y FROM p a JOIN p b ON a.id = b.id"
        )
        assert df.count() == 5


class TestExtensions:
    def test_injected_strategy_takes_priority(self, session, people_df):
        seen = []

        def spy_strategy(plan: LogicalPlan, planner) -> PhysicalPlan | None:
            seen.append(type(plan).__name__)
            return None  # always fall through

        session.extensions.inject_planner_strategy(spy_strategy)
        session._rebuild_pipeline()
        people_df.collect()
        assert seen  # the spy saw every planning request

    def test_injected_rule_runs_after_standard_batches(self, session, people_df):
        calls = []

        def spy_rule(plan: LogicalPlan) -> LogicalPlan:
            calls.append(plan)
            return plan

        session.extensions.inject_optimizer_rule(spy_rule)
        session._rebuild_pipeline()
        people_df.collect()
        assert calls

    def test_session_context_manager(self):
        from repro.config import Config
        from repro.sql.session import Session

        with Session(Config()) as s:
            assert s.create_dataframe([(1,)], [("x", "long")]).count() == 1
