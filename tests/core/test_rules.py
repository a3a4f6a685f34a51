"""Tests for the Catalyst integration: rules, strategy, fallbacks."""

from __future__ import annotations

import pytest

from repro.core import create_index
from repro.core.physical import IndexedJoinExec, IndexedScanExec, IndexLookupExec
from repro.core.relation import IndexedRelation
from repro.core.rules import IndexLookup, index_lookup_rewrite
from repro.sql.expressions import And, EqualTo, GreaterThan, In, Literal
from repro.sql.functions import col
from repro.sql.logical import Filter

SCHEMA = [("id", "long"), ("grp", "long"), ("name", "string")]


@pytest.fixture()
def indexed(indexed_session):
    df = indexed_session.create_dataframe(
        [(i, i % 7, f"n{i}") for i in range(200)], SCHEMA
    )
    return create_index(df, "id")


def physical_of(df) -> str:
    return df.explain().split("== Physical ==")[1]


class TestLookupRewrite:
    def test_equality_becomes_lookup(self, indexed):
        relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
        plan = Filter(EqualTo(relation.key_attribute, Literal(5)), relation)
        rewritten = index_lookup_rewrite(plan)
        assert isinstance(rewritten, IndexLookup)
        assert rewritten.keys == [5]

    def test_reversed_equality(self, indexed):
        relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
        plan = Filter(EqualTo(Literal(5), relation.key_attribute), relation)
        assert isinstance(index_lookup_rewrite(plan), IndexLookup)

    def test_in_list_becomes_multi_lookup(self, indexed):
        relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
        plan = Filter(
            In(relation.key_attribute, [Literal(1), Literal(2)]), relation
        )
        rewritten = index_lookup_rewrite(plan)
        assert isinstance(rewritten, IndexLookup)
        assert rewritten.keys == [1, 2]

    def test_residual_filter_kept(self, indexed):
        relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
        grp = relation.output()[1]
        condition = And(
            EqualTo(relation.key_attribute, Literal(5)),
            GreaterThan(grp, Literal(0)),
        )
        plan = Filter(condition, relation)
        rewritten = index_lookup_rewrite(plan)
        assert isinstance(rewritten, Filter)
        assert isinstance(rewritten.child, IndexLookup)

    def test_non_key_filter_untouched(self, indexed):
        relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
        grp = relation.output()[1]
        plan = Filter(EqualTo(grp, Literal(3)), relation)
        assert index_lookup_rewrite(plan) is plan

    def test_null_key_dropped(self, indexed):
        relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
        plan = Filter(EqualTo(relation.key_attribute, Literal(None)), relation)
        rewritten = index_lookup_rewrite(plan)
        assert isinstance(rewritten, IndexLookup)
        assert rewritten.keys == []


class TestPlannedOperators:
    def test_key_filter_plans_lookup(self, indexed):
        df = indexed.to_df().filter(col("id") == 3)
        assert "IndexLookup" in physical_of(df)
        assert df.collect()[0]["name"] == "n3"

    def test_non_key_filter_plans_scan(self, indexed):
        df = indexed.to_df().filter(col("grp") == 3)
        text = physical_of(df)
        assert "IndexedScan" in text and "IndexLookup" not in text
        assert df.count() == len([i for i in range(200) if i % 7 == 3])

    def test_projection_prunes_scan_columns(self, indexed):
        df = indexed.to_df().select("name")
        assert "columns=[2]" in physical_of(df)

    def test_join_on_key_plans_indexed_join(self, indexed, indexed_session):
        probe = indexed_session.create_dataframe(
            [(i, i * 10) for i in range(0, 200, 5)], [("pid", "long"), ("w", "long")]
        )
        df = indexed.join(probe, on=indexed.col("id") == probe.col("pid"))
        assert "IndexedJoin" in physical_of(df)
        assert df.count() == 40

    def test_join_on_non_key_falls_back(self, indexed, indexed_session):
        probe = indexed_session.create_dataframe(
            [(g,) for g in range(7)], [("g", "long")]
        )
        df = indexed.to_df().join(probe, on=indexed.col("grp") == probe.col("g"))
        text = physical_of(df)
        assert "IndexedJoin" not in text
        assert df.count() == 200

    def test_outer_join_falls_back(self, indexed, indexed_session):
        probe = indexed_session.create_dataframe(
            [(1, 1)], [("pid", "long"), ("w", "long")]
        )
        df = indexed.join(probe, on=indexed.col("id") == probe.col("pid"), how="left")
        text = physical_of(df)
        assert "IndexedJoin" not in text
        assert df.count() == 200  # left join keeps all indexed rows

    def test_indexed_join_with_extra_condition(self, indexed, indexed_session):
        probe = indexed_session.create_dataframe(
            [(i, i) for i in range(200)], [("pid", "long"), ("w", "long")]
        )
        condition = (indexed.col("id") == probe.col("pid")) & (
            probe.col("w") > 100
        )
        df = indexed.join(probe, on=condition)
        assert "IndexedJoin" in physical_of(df)
        assert df.count() == 99

    def test_probe_side_can_be_left(self, indexed, indexed_session):
        probe = indexed_session.create_dataframe(
            [(3, 30)], [("pid", "long"), ("w", "long")]
        )
        df = probe.join(indexed.to_df(), on=probe.col("pid") == indexed.col("id"))
        assert "IndexedJoin" in physical_of(df)
        row = df.collect()[0]
        assert row["pid"] == 3 and row["name"] == "n3"
        # column order must match the logical join (probe side first)
        assert df.columns[:2] == ["pid", "w"]


class TestFallbackWithoutExtension:
    def test_vanilla_session_still_correct(self, session):
        """An IndexedDataFrame queried in a session WITHOUT the injected
        rules falls back to plain scans and stays correct (Figure 1's
        regular execution path)."""
        df = session.create_dataframe([(i, i % 7, f"n{i}") for i in range(50)], SCHEMA)
        indexed = create_index(df, "id")
        lookup = indexed.get_rows(9)
        text = lookup.explain()
        assert "IndexLookup" not in text  # no rules injected here
        assert lookup.collect()[0]["name"] == "n9"


class TestEquivalence:
    """Every indexed plan must return exactly the vanilla answer."""

    def test_filter_equivalence(self, indexed, indexed_session):
        vanilla = indexed_session.create_dataframe(
            [(i, i % 7, f"n{i}") for i in range(200)], SCHEMA
        ).cache()
        for key in (0, 42, 199, -5):
            a = sorted(map(tuple, indexed.to_df().filter(col("id") == key).collect()))
            b = sorted(map(tuple, vanilla.filter(col("id") == key).collect()))
            assert a == b

    def test_join_equivalence(self, indexed, indexed_session):
        vanilla = indexed_session.create_dataframe(
            [(i, i % 7, f"n{i}") for i in range(200)], SCHEMA
        ).cache()
        probe = indexed_session.create_dataframe(
            [(i * 3, i) for i in range(80)], [("pid", "long"), ("w", "long")]
        )
        a = sorted(
            map(tuple, indexed.join(probe, on=indexed.col("id") == probe.col("pid")).collect())
        )
        b = sorted(
            map(tuple, vanilla.join(probe, on=vanilla.col("id") == probe.col("pid")).collect())
        )
        assert a == b

    def test_aggregation_over_indexed_scan(self, indexed, indexed_session):
        from repro.sql.functions import count

        by_group = dict(
            (r["grp"], r["n"])
            for r in indexed.to_df().group_by("grp").agg(count().alias("n")).collect()
        )
        expected = {}
        for i in range(200):
            expected[i % 7] = expected.get(i % 7, 0) + 1
        assert by_group == expected
