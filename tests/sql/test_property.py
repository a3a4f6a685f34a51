"""Property-based tests: SQL operators vs a naive Python oracle."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.sql.functions import col, count, sum_
from repro.sql.session import Session

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

rows_strategy = st.lists(
    st.tuples(
        st.integers(-20, 20),
        st.one_of(st.none(), st.integers(-100, 100)),
        st.sampled_from(["x", "y", "z"]),
    ),
    max_size=60,
)


@pytest.fixture(scope="module")
def shared_session():
    s = Session(Config(shuffle_partitions=3, default_parallelism=2))
    yield s
    s.stop()


def make_df(session, rows):
    return session.create_dataframe(
        rows, [("k", "long"), ("v", "long"), ("tag", "string")], num_partitions=3
    )


@slow
@given(rows=rows_strategy, threshold=st.integers(-20, 20))
def test_filter_matches_oracle(shared_session, rows, threshold):
    df = make_df(shared_session, rows)
    got = sorted(map(tuple, df.filter(col("k") > threshold).collect()), key=repr)
    expected = sorted((r for r in rows if r[0] > threshold), key=repr)
    assert got == expected


@slow
@given(rows=rows_strategy)
def test_group_count_matches_oracle(shared_session, rows):
    df = make_df(shared_session, rows)
    got = dict(
        (r["k"], r["n"])
        for r in df.group_by("k").agg(count().alias("n")).collect()
    )
    expected: dict = {}
    for r in rows:
        expected[r[0]] = expected.get(r[0], 0) + 1
    assert got == expected


@slow
@given(rows=rows_strategy)
def test_group_sum_skips_nulls(shared_session, rows):
    df = make_df(shared_session, rows)
    got = dict(
        (r["k"], r["s"]) for r in df.group_by("k").agg(sum_("v").alias("s")).collect()
    )
    expected: dict = {}
    for k, v, _tag in rows:
        if k not in expected:
            expected[k] = None
        if v is not None:
            expected[k] = v if expected[k] is None else expected[k] + v
    assert got == expected


@slow
@given(rows=rows_strategy)
def test_distinct_matches_set(shared_session, rows):
    df = make_df(shared_session, rows)
    got = sorted(map(tuple, df.distinct().collect()), key=repr)
    expected = sorted(set(rows), key=repr)
    assert got == expected


@slow
@given(rows=rows_strategy)
def test_order_by_is_total_sort(shared_session, rows):
    df = make_df(shared_session, rows)
    got = [r["k"] for r in df.order_by(col("k").asc()).collect()]
    assert got == sorted(r[0] for r in rows)


@slow
@given(left=rows_strategy, right=rows_strategy)
def test_inner_join_matches_oracle(shared_session, left, right):
    ldf = make_df(shared_session, left)
    rdf = shared_session.create_dataframe(
        [(r[0], r[2]) for r in right], [("k2", "long"), ("tag2", "string")],
        num_partitions=2,
    )
    got = sorted(
        map(tuple, ldf.join(rdf, on=ldf.col("k") == rdf.col("k2")).collect()),
        key=repr,
    )
    expected = sorted(
        (
            (lk, lv, lt, rk, rt)
            for (lk, lv, lt) in left
            for (rk, _rv, rt) in right
            if lk == rk
        ),
        key=repr,
    )
    assert got == expected


@slow
@given(left=rows_strategy, right=rows_strategy)
def test_left_join_row_count(shared_session, left, right):
    ldf = make_df(shared_session, left)
    rdf = shared_session.create_dataframe(
        [(r[0],) for r in right], [("k2", "long")], num_partitions=2
    )
    joined = ldf.join(rdf, on=ldf.col("k") == rdf.col("k2"), how="left")
    right_counts: dict = {}
    for r in right:
        right_counts[r[0]] = right_counts.get(r[0], 0) + 1
    expected = sum(max(1, right_counts.get(l[0], 0)) for l in left)
    assert joined.count() == expected


@slow
@given(rows=rows_strategy, n=st.integers(0, 10))
def test_limit_bounds(shared_session, rows, n):
    df = make_df(shared_session, rows)
    assert len(df.limit(n).collect()) == min(n, len(rows))
