"""Tests for join planning and execution across join types and modes."""

from __future__ import annotations

import pytest

from repro.errors import AnalysisError
from repro.sql.functions import col


def pairs(df, *names):
    return sorted(tuple(r[n] for n in names) for r in df.collect())


class TestInnerJoin:
    def test_by_condition(self, people_df, orders_df):
        joined = people_df.join(orders_df, on=people_df.col("id") == orders_df.col("pid"))
        assert pairs(joined, "id", "oid") == [(1, 10), (1, 11), (2, 14), (3, 12)]

    def test_duplicate_keys_produce_products(self, session):
        left = session.create_dataframe([(1, "a"), (1, "b")], [("k", "long"), ("l", "string")])
        right = session.create_dataframe([(1, "x"), (1, "y")], [("k2", "long"), ("r", "string")])
        joined = left.join(right, on=left.col("k") == right.col("k2"))
        assert joined.count() == 4

    def test_null_keys_never_match(self, session):
        left = session.create_dataframe([(None, "l")], [("k", "long"), ("v", "string")])
        right = session.create_dataframe([(None, "r")], [("k2", "long"), ("w", "string")])
        assert left.join(right, on=left.col("k") == right.col("k2")).count() == 0

    def test_join_on_column_names(self, session):
        left = session.create_dataframe([(1, "a")], [("k", "long"), ("l", "string")])
        right = session.create_dataframe([(1, "x")], [("k", "long"), ("r", "string")])
        assert left.join(right, on="k").count() == 1

    def test_extra_non_equi_condition(self, people_df, orders_df):
        condition = (people_df.col("id") == orders_df.col("pid")) & (
            orders_df.col("amount") > 20
        )
        joined = people_df.join(orders_df, on=condition)
        assert pairs(joined, "oid") == [(10,), (12,)]


class TestOuterJoins:
    def test_left_join_pads_missing(self, people_df, orders_df):
        joined = people_df.join(
            orders_df, on=people_df.col("id") == orders_df.col("pid"), how="left"
        )
        result = pairs(joined, "id")
        assert result.count((4,)) == 1 and result.count((5,)) == 1
        assert joined.filter(col("oid").is_null()).count() == 2

    def test_right_join(self, people_df, orders_df):
        joined = people_df.join(
            orders_df, on=people_df.col("id") == orders_df.col("pid"), how="right"
        )
        assert joined.count() == 5  # order 13 has pid 9 → padded left side
        assert joined.filter(col("id").is_null()).count() == 1

    def test_full_join(self, people_df, orders_df):
        joined = people_df.join(
            orders_df, on=people_df.col("id") == orders_df.col("pid"), how="full"
        )
        # 4 matches + person 4,5 unmatched + order 13 unmatched
        assert joined.count() == 7

    def test_semi_join_projects_left_only(self, people_df, orders_df):
        joined = people_df.join(
            orders_df, on=people_df.col("id") == orders_df.col("pid"), how="semi"
        )
        assert joined.columns == people_df.columns
        assert pairs(joined, "id") == [(1,), (2,), (3,)]

    def test_anti_join(self, people_df, orders_df):
        joined = people_df.join(
            orders_df, on=people_df.col("id") == orders_df.col("pid"), how="anti"
        )
        assert pairs(joined, "id") == [(4,), (5,)]

    def test_left_join_with_extra_condition(self, people_df, orders_df):
        condition = (people_df.col("id") == orders_df.col("pid")) & (
            orders_df.col("amount") > 50
        )
        joined = people_df.join(orders_df, on=condition, how="left")
        matched = joined.filter(col("oid").is_not_null())
        assert pairs(matched, "id", "oid") == [(1, 10)]
        assert joined.count() == 5  # every person appears


class TestCrossJoin:
    def test_cross_product(self, session):
        left = session.create_dataframe([(1,), (2,)], [("a", "long")])
        right = session.create_dataframe([(10,), (20,), (30,)], [("b", "long")])
        assert left.join(right).count() == 6

    def test_cross_with_filter_after(self, session):
        left = session.create_dataframe([(1,), (2,)], [("a", "long")])
        right = session.create_dataframe([(1,), (2,)], [("b", "long")])
        joined = left.join(right).filter(col("a") == col("b"))
        assert joined.count() == 2

    def test_invalid_join_type(self, people_df, orders_df):
        with pytest.raises(AnalysisError):
            people_df.join(orders_df, on=people_df.col("id") == orders_df.col("pid"), how="sideways")


class TestJoinModes:
    """Broadcast vs shuffled dispatch (threshold = 50 in test config)."""

    def test_small_right_side_broadcasts(self, session):
        big = session.create_dataframe([(i,) for i in range(500)], [("a", "long")])
        small = session.create_dataframe([(7,), (8,)], [("b", "long")])
        joined = big.join(small, on=big.col("a") == small.col("b"))
        assert "BroadcastHashJoin" in joined.explain()
        assert joined.count() == 2

    def test_large_right_side_shuffles(self, session):
        big = session.create_dataframe([(i,) for i in range(500)], [("a", "long")])
        other = session.create_dataframe([(i,) for i in range(500)], [("b", "long")])
        joined = big.join(other, on=big.col("a") == other.col("b"))
        # Statically undecided → adaptive; at runtime 500 rows exceed
        # the 50-row threshold and the join resolves to shuffle.
        assert "AdaptiveJoin" in joined.explain()
        assert joined.count() == 500
        assert "decision=shuffle" in joined.last_execution_plan()

    def test_right_outer_never_broadcast(self, session):
        big = session.create_dataframe([(i,) for i in range(500)], [("a", "long")])
        small = session.create_dataframe([(7,)], [("b", "long")])
        joined = big.join(small, on=big.col("a") == small.col("b"), how="right")
        # A right outer join can never take the broadcast build, not
        # even adaptively — the plan commits to shuffle up front.
        assert "ShuffledHashJoin" in joined.explain()
        assert joined.count() == 1

    def test_broadcast_and_shuffled_agree(self, session):
        left = session.create_dataframe(
            [(i % 20, i) for i in range(200)], [("k", "long"), ("v", "long")]
        )
        small = session.create_dataframe(
            [(k, k * 100) for k in range(10)], [("k2", "long"), ("w", "long")]
        )
        broadcast = left.join(small, on=left.col("k") == small.col("k2"))
        forced = left.join(
            small.union(small).distinct(),  # breaks the row estimate → shuffle
            on=left.col("k") == small.col("k2"),
        )
        assert sorted(map(tuple, broadcast.collect())) == sorted(
            map(tuple, forced.collect())
        )
