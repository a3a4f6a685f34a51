"""Kernel templates and the process-wide validated-code cache.

A kernel's source is literal-free, so every kernel of one shape shares
one compiled code object and differs only in its ``__defaults__``. These
tests pin the three things that could go wrong with that: constants
leaking between instances, a check that used to run per kernel being
skipped on a hit, and the shared cache misbehaving under threads or
growth. The cache is process-wide and other tests fill it too, so every
assertion on a counter is on a *delta*.
"""

from __future__ import annotations

import datetime
import sys
import threading
from decimal import Decimal

import pytest

from repro import codegen
from repro.codegen.compiler import TEMPLATE_CAPACITY
from repro.config import Config
from repro.core import enable_indexing
from repro.errors import CodegenError
from repro.snb import ALL_QUERIES, generate, load_indexed, run_query
from repro.sql import expressions as E
from repro.sql.session import Session
from repro.sql.types import DateType, DoubleType, LongType, StringType

NAN = float("nan")

# Row layout: (long, double, string, decimal-as-double, date)
LONG, DOUBLE, STRING, DECIMAL, DATE = range(5)
DTYPES = [LongType(), DoubleType(), StringType(), DoubleType(), DateType()]
ROWS = [
    (0, 0.0, "", Decimal("0"), datetime.date(1970, 1, 1)),
    (7, 1.5, "it's", Decimal("1.10"), datetime.date(2019, 6, 30)),
    (-3, -0.0, 'say "hi"', Decimal("-2.5"), datetime.date(2020, 2, 29)),
    (2**80, float("inf"), "back\\slash", Decimal("1e30"), datetime.date(9999, 12, 31)),
    (-(2**80), float("-inf"), "line\nbreak", Decimal("1.1"), datetime.date(1, 1, 1)),
    (41, NAN, "naïve ☃", Decimal("7"), datetime.date(2019, 7, 1)),
    (None, None, None, None, None),
]

LITERALS = {
    LONG: [0, 7, -3, 2**80, -(2**80), 10**30],
    DOUBLE: [0.0, 1.5, -0.0, NAN, float("inf"), float("-inf"), 1e-320],
    STRING: ["", "it's", 'say "hi"', "back\\slash", "line\nbreak", "{0}%s\t", "naïve ☃"],
    DECIMAL: [Decimal("0"), Decimal("1.10"), Decimal("-2.5"), Decimal("1e30")],
    DATE: [datetime.date(2019, 6, 30), datetime.date(2020, 2, 29), datetime.date(1, 1, 1)],
}


def ref(column: int) -> E.BoundReference:
    return E.BoundReference(column, DTYPES[column], f"c{column}")


def lit(column: int, value) -> E.Literal:
    return E.Literal(value, DTYPES[column])


def compiled_delta(before) -> int:
    return codegen.stats().compiled - before.compiled


def interpret_fused(condition, projections):
    return [
        tuple(p.eval(r) for p in projections)
        for r in ROWS
        if condition.eval(r) is True
    ]


def same(actual, expected) -> bool:
    """Equality that treats NaN as equal to itself, wherever it sits."""
    return repr(actual) == repr(expected)


# ----------------------------------------------------------------------
# (a) literal sweep
# ----------------------------------------------------------------------


@pytest.mark.parametrize("column", sorted(LITERALS))
def test_literal_sweep_one_template_per_shape(column):
    """Every kernel shape × every literal of the column's type: each
    instance equals the interpreter, all instances of a shape share one
    code object, and building a later instance never disturbs an
    earlier one's constants."""
    values = LITERALS[column]
    before = codegen.stats()
    built = []
    for value in values:
        predicate = E.LessThanOrEqual(ref(column), lit(column, value))
        projection = [E.EqualTo(ref(column), lit(column, value)), lit(column, value)]
        key = [lit(column, value), ref(column)]
        built.append(
            (
                value,
                (predicate, codegen.compile_predicate(predicate)),
                (projection, codegen.compile_projection(projection)),
                (key, codegen.compile_key_extractor(key, null_to_none=True)),
                (
                    (predicate, projection),
                    codegen.compile_filter_project_kernel(predicate, projection),
                ),
            )
        )
    # Four shapes, at most four compiles — however many literals.
    assert compiled_delta(before) <= 4
    assert codegen.stats().cache_hits - before.cache_hits >= 4 * (len(values) - 1)

    # Evaluate only now, after every instance exists.
    for value, (pred, pred_fn), (proj, proj_fn), (key, key_fn), (fused, kernel) in built:
        for row in ROWS:
            assert same(pred_fn(row), pred.eval(row)), (value, row)
            assert same(proj_fn(row), tuple(e.eval(row) for e in proj)), (value, row)
            expected_key = tuple(e.eval(row) for e in key)
            if any(v is None for v in expected_key):
                expected_key = None
            assert same(key_fn(row), expected_key), (value, row)
        assert same(kernel(ROWS), interpret_fused(*fused)), value
        # The literal travels as the very object the expression holds.
        assert proj_fn.__defaults__[-1] is value
        assert "_k0" in pred_fn.__codegen_source__

    for position in range(1, 5):
        kernels = [entry[position][1] for entry in built]
        assert len({k.__code__ for k in kernels}) == 1
        assert len({id(k) for k in kernels}) == len(kernels)


@pytest.mark.parametrize("with_null", [False, True])
def test_in_lists_share_a_template_but_not_their_members(with_null):
    option_sets = [[1, 7], [7], [-3, 2**80, 41, 0], list(range(100, 140))]
    built = []
    for options in option_sets:
        literals = [E.Literal(v) for v in options]
        if with_null:
            literals.insert(1, E.Literal(None))
        expr = E.In(ref(LONG), literals)
        built.append((expr, codegen.compile_predicate(expr)))
    assert len({fn.__code__ for _e, fn in built}) == 1
    for (expr, fn), options in zip(built, option_sets):
        assert fn.__defaults__ == (frozenset(options),)
        assert [fn(r) for r in ROWS] == [expr.eval(r) for r in ROWS]
    # NULL in the list changes the miss value, i.e. the shape.
    other = codegen.compile_predicate(
        E.In(ref(LONG), [E.Literal(1)] + ([] if with_null else [E.Literal(None)]))
    )
    assert other.__code__ is not built[0][1].__code__


def test_like_patterns_share_a_template():
    patterns = ["it%", "%\"hi\"", "back\\slash", "line_break", "%\n%", "", "%", "na_ve%", "%'s"]
    built = []
    for pattern in patterns:
        expr = E.Like(ref(STRING), E.Literal(pattern))
        built.append((expr, codegen.compile_predicate(expr)))
    assert len({fn.__code__ for _e, fn in built}) == 1
    for expr, fn in built:
        assert [fn(r) for r in ROWS] == [expr.eval(r) for r in ROWS], expr


def test_none_and_booleans_stay_in_the_source():
    """NULL/TRUE/FALSE literals select 3VL branches: they are the
    shape, not data, and need no const slot."""
    for value in (None, True, False):
        expr = E.And(E.IsNotNull(ref(LONG)), E.Literal(value))
        fn = codegen.compile_predicate(expr)
        assert fn.__defaults__ is None
        assert repr(value) in fn.__codegen_source__
        assert [fn(r) for r in ROWS] == [expr.eval(r) for r in ROWS]


# ----------------------------------------------------------------------
# (b) the per-instance check survives a cache hit
# ----------------------------------------------------------------------


def test_mutable_const_on_a_cache_hit_is_rejected_and_falls_back():
    shape = lambda value: E.EqualTo(ref(LONG), E.Literal(value, LongType()))  # noqa: E731
    codegen.compile_predicate(shape(5))  # the template is now cached
    before = codegen.stats()
    with pytest.raises(CodegenError, match="CG002"):
        codegen.compile_predicate(shape([5]))
    assert compiled_delta(before) == 0

    expr = shape([5])
    fn = codegen.predicate_fn(expr)
    after = codegen.stats()
    assert after.fallbacks == before.fallbacks + 1
    assert "CG002" in after.last_error
    assert fn == expr.eval  # the interpreted bound method
    assert codegen.try_filter_project_kernel(expr, None) is None


def test_reset_stats_keeps_the_templates():
    expr = E.GreaterThan(ref(LONG), E.Literal(1))
    codegen.compile_predicate(expr)
    codegen.reset_stats()
    cleared = codegen.stats()
    assert (cleared.compiled, cleared.cache_hits, cleared.fallbacks) == (0, 0, 0)
    assert 0 < cleared.templates <= TEMPLATE_CAPACITY
    codegen.compile_predicate(expr)
    again = codegen.stats()
    assert (again.compiled, again.cache_hits) == (0, 1)
    assert again.templates == cleared.templates


# ----------------------------------------------------------------------
# (c) concurrent first compile
# ----------------------------------------------------------------------


def test_eight_threads_compile_a_new_shape_exactly_once():
    threads_n = 8
    # A shape nothing else in the suite builds: a 9-deep sum on ordinal 0.
    def shape(seed: int) -> E.Expression:
        expr: E.Expression = ref(LONG)
        for step in range(9):
            expr = E.Add(expr, E.Literal(seed * 100 + step))
        return E.Subtract(expr, E.Literal(seed))

    barrier = threading.Barrier(threads_n)
    kernels: dict[int, object] = {}
    errors: list[BaseException] = []

    def build(seed: int) -> None:
        try:
            barrier.wait(timeout=10)
            kernels[seed] = codegen.compile_value(shape(seed))
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    before = codegen.stats()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(s,)) for s in range(threads_n)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    after = codegen.stats()
    assert after.compiled - before.compiled == 1
    assert after.cache_hits - before.cache_hits == threads_n - 1
    assert len({k.__code__ for k in kernels.values()}) == 1
    for seed, kernel in kernels.items():
        expr = shape(seed)
        assert [kernel(r) for r in ROWS] == [expr.eval(r) for r in ROWS]


# ----------------------------------------------------------------------
# (d) steady state compiles nothing
# ----------------------------------------------------------------------

SERVED_SQL = {
    "PointLookup": "SELECT first_name, last_name, city_id FROM person WHERE id = {0}",
    "FriendsJoin": "SELECT p.id, p.first_name, k.creation_date FROM knows k "
    "JOIN person p ON k.person2_id = p.id WHERE k.person1_id = {0}",
    "RecentMessages": "SELECT id, content, creation_date FROM message WHERE creator_id = {0} "
    "ORDER BY creation_date DESC, id DESC LIMIT 10",
    "ForumTop10": "SELECT forum_id, COUNT(*) AS n FROM forum_member WHERE person_id <> {0} "
    "GROUP BY forum_id ORDER BY n DESC, forum_id ASC LIMIT 10",
}


def test_steady_state_short_reads_compile_nothing():
    dataset = generate(scale_factor=0.15, seed=11)
    session = Session(
        Config(
            shuffle_partitions=4,
            default_parallelism=4,
            serving_enabled=True,
        )
    )
    enable_indexing(session)
    try:
        ctx = load_indexed(session, dataset)
        ctx.person_idx.create_or_replace_temp_view("person")
        ctx.knows_idx.create_or_replace_temp_view("knows")
        ctx.message_by_creator_idx.create_or_replace_temp_view("message")
        ctx.forum_member.create_or_replace_temp_view("forum_member")
        ids = {"person": dataset.person_ids(), "message": dataset.message_ids()}

        def one_round(n: int) -> None:
            for name, (_fn, kind) in ALL_QUERIES.items():
                run_query(ctx, name, ids[kind][(n * 37) % len(ids[kind])])
            for text in SERVED_SQL.values():
                session.serve(text.format(ids["person"][(n * 53) % len(ids["person"])]))

        for n in range(3):
            one_round(n)
        before = codegen.stats()
        for n in range(3, 53):
            one_round(n)
        after = codegen.stats()
    finally:
        session.stop()
    assert after.compiled == before.compiled
    assert after.fallbacks == before.fallbacks
    assert after.cache_hits - before.cache_hits >= 50 * len(ALL_QUERIES)


# ----------------------------------------------------------------------
# (e) bounded
# ----------------------------------------------------------------------


def test_cache_never_exceeds_its_capacity():
    before = codegen.stats()
    wide_row = tuple(range(2 * TEMPLATE_CAPACITY + 1000))
    for ordinal in range(1000, 1000 + 2 * TEMPLATE_CAPACITY):
        fn = codegen.compile_value(E.BoundReference(ordinal, LongType(), "c"))
        assert fn(wide_row) == ordinal
        assert codegen.stats().templates <= TEMPLATE_CAPACITY
    filled = codegen.stats()
    assert filled.templates == TEMPLATE_CAPACITY
    assert filled.compiled - before.compiled == 2 * TEMPLATE_CAPACITY
    # Oldest first: the first synthetic shape is gone, the last is not.
    codegen.compile_value(E.BoundReference(1000 + 2 * TEMPLATE_CAPACITY - 1, LongType(), "c"))
    assert compiled_delta(filled) == 0
    codegen.compile_value(E.BoundReference(1000, LongType(), "c"))
    assert compiled_delta(filled) == 1
    assert codegen.stats().templates == TEMPLATE_CAPACITY
