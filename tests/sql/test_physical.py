"""Unit tests for physical operators and expression binding."""

from __future__ import annotations

import pytest

from repro.errors import PlanningError
from repro.sql.expressions import (
    AggregateExpression,
    Alias,
    Attribute,
    BoundReference,
    EqualTo,
    GreaterThan,
    Literal,
    SortOrder,
)
from repro.sql.physical import (
    FilterExec,
    HashAggregateExec,
    LimitExec,
    LocalDataExec,
    ProjectExec,
    SortExec,
    _AggSpec,
    _bind_orders,
    _sort_key_fn,
    bind_expression,
)
from repro.sql.types import LongType, StringType


def attrs(*specs):
    return [Attribute(n, t) for n, t in specs]


def local(ctx, rows, output):
    return LocalDataExec(ctx, rows, output)


class TestBinding:
    def test_binds_by_expr_id(self):
        a, b = attrs(("a", LongType()), ("b", LongType()))
        bound = bind_expression(GreaterThan(b, a), [a, b])
        assert bound.eval((1, 5)) is True

    def test_unknown_attribute_raises(self):
        a, b = attrs(("a", LongType()), ("b", LongType()))
        with pytest.raises(PlanningError):
            bind_expression(GreaterThan(b, Literal(1)), [a])

    def test_binding_is_positional_not_by_name(self):
        first = Attribute("x", LongType())
        second = Attribute("x", LongType())  # same name, new id
        bound = bind_expression(second, [first, second])
        assert isinstance(bound, BoundReference)
        assert bound.ordinal == 1


class TestBasicOperators:
    def test_filter_keeps_only_true(self, ctx):
        a = Attribute("a", LongType())
        child = local(ctx, [(1,), (None,), (5,)], [a])
        out = FilterExec(GreaterThan(a, Literal(2)), child)
        assert out.execute().collect() == [(5,)]  # NULL comparison drops

    def test_project_evaluates_expressions(self, ctx):
        a = Attribute("a", LongType())
        child = local(ctx, [(3,)], [a])
        from repro.sql.expressions import Add

        out = ProjectExec([Alias(Add(a, Literal(10)), "b")], child)
        assert out.execute().collect() == [(13,)]
        assert out.output[0].name == "b"

    def test_limit(self, ctx):
        a = Attribute("a", LongType())
        child = local(ctx, [(i,) for i in range(10)], [a])
        assert LimitExec(3, child).execute().collect() == [(0,), (1,), (2,)]

    def test_sort_directions_and_nulls(self, ctx):
        a = Attribute("a", LongType())
        child = local(ctx, [(3,), (None,), (1,), (2,)], [a])
        ascending = SortExec([SortOrder(a, True)], child).execute().collect()
        assert ascending == [(None,), (1,), (2,), (3,)]
        descending = SortExec([SortOrder(a, False)], child).execute().collect()
        assert descending == [(3,), (2,), (1,), (None,)]

    def test_sort_composite_key(self, ctx):
        a = Attribute("a", LongType())
        b = Attribute("b", StringType())
        rows = [(1, "b"), (2, "a"), (1, "a"), (2, "b")]
        child = local(ctx, rows, [a, b])
        out = SortExec([SortOrder(a, True), SortOrder(b, False)], child)
        assert out.execute().collect() == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]

    @pytest.mark.parametrize(
        "nulls_first,expected",
        [
            (True, [(None, "c"), (None, "a"), (1, "b"), (1, "a"), (1, None), (2, "b"), (2, "a")]),
            (False, [(1, None), (1, "b"), (1, "a"), (2, "b"), (2, "a"), (None, "c"), (None, "a")]),
        ],
    )
    def test_one_partition_sort_matches_the_range_sort(self, ctx, nulls_first, expected):
        a = Attribute("a", LongType())
        b = Attribute("b", StringType())
        rows = [(1, "b"), (None, "a"), (2, "a"), (1, None), (None, "c"), (2, "b"), (1, "a")]
        orders = [SortOrder(a, True, nulls_first), SortOrder(b, False, nulls_first)]
        key = _sort_key_fn(_bind_orders(orders, [a, b]))
        in_place = ctx.parallelize(rows, 1).sort_by(key).collect()
        assert in_place == ctx.parallelize(rows, 3).sort_by(key).collect() == expected
        assert SortExec(orders, local(ctx, rows, [a, b])).execute().collect() == expected


class TestAggSpec:
    @pytest.mark.parametrize(
        "fn,values,expected",
        [
            ("count", [1, None, 3], 2),
            ("sum", [1, None, 3], 4),
            ("min", [5, 2, None], 2),
            ("max", [5, 2, None], 5),
            ("avg", [2, 4, None], 3.0),
            ("first", ["a", "b"], "a"),
            ("count_distinct", [1, 1, 2, None], 2),
        ],
    )
    def test_update_result(self, fn, values, expected):
        spec = _AggSpec(fn, BoundReference(0, LongType()))
        acc = spec.create()
        for v in values:
            acc = spec.update(acc, (v,))
        assert spec.result(acc) == expected

    @pytest.mark.parametrize("fn", ["count", "sum", "min", "max", "avg", "count_distinct"])
    def test_merge_equals_sequential(self, fn):
        spec = _AggSpec(fn, BoundReference(0, LongType()))
        left_values, right_values = [1, 7, 3], [2, 9]
        left = spec.create()
        for v in left_values:
            left = spec.update(left, (v,))
        right = spec.create()
        for v in right_values:
            right = spec.update(right, (v,))
        merged = spec.merge(left, right)
        sequential = spec.create()
        for v in left_values + right_values:
            sequential = spec.update(sequential, (v,))
        assert spec.result(merged) == spec.result(sequential)

    def test_empty_aggregates(self):
        for fn, expected in [("count", 0), ("sum", None), ("min", None),
                             ("avg", None), ("count_distinct", 0)]:
            spec = _AggSpec(fn, BoundReference(0, LongType()))
            assert spec.result(spec.create()) == expected


class TestHashAggregateExec:
    def test_grouped(self, ctx):
        k = Attribute("k", LongType())
        v = Attribute("v", LongType())
        rows = [(1, 10), (2, 20), (1, 30)]
        child = local(ctx, rows, [k, v])
        agg = HashAggregateExec(
            [k],
            [k, Alias(AggregateExpression("sum", v), "total")],
            child,
        )
        assert sorted(agg.execute().collect()) == [(1, 40), (2, 20)]

    def test_global_on_empty_input_emits_one_row(self, ctx):
        v = Attribute("v", LongType())
        child = local(ctx, [], [v])
        agg = HashAggregateExec(
            [], [Alias(AggregateExpression("count", None), "n")], child
        )
        assert agg.execute().collect() == [(0,)]

    def test_grouping_expression_output(self, ctx):
        from repro.sql.expressions import Modulo

        k = Attribute("k", LongType())
        child = local(ctx, [(i,) for i in range(10)], [k])
        parity = Modulo(k, Literal(2))
        agg = HashAggregateExec(
            [parity],
            [Alias(parity, "parity"), Alias(AggregateExpression("count", None), "n")],
            child,
        )
        assert sorted(agg.execute().collect()) == [(0, 5), (1, 5)]

    def test_unmatched_output_raises(self, ctx):
        k = Attribute("k", LongType())
        other = Attribute("other", LongType())
        child = local(ctx, [(1,)], [k])
        with pytest.raises(PlanningError):
            HashAggregateExec([k], [other], child)
