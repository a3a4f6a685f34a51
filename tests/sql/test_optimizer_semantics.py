"""Differential testing: the optimizer must never change results.

Every query is executed twice — once from the *analyzed* plan (no
optimization at all) and once through the full optimizer — and the row
multisets must match. This catches semantics bugs in any rewrite rule
(pushdown past the wrong join side, over-eager pruning, bad folding)
on randomized query shapes.
"""

from __future__ import annotations

import random

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql.functions import avg, col, count, lit, max_, min_, sum_
from repro.sql.session import Session


@pytest.fixture(scope="module")
def session():
    s = Session(
        Config(
            shuffle_partitions=3,
            default_parallelism=2,
            broadcast_threshold=20,
            batch_size_bytes=64 * 1024,
        )
    )
    enable_indexing(s)
    yield s
    s.stop()


@pytest.fixture(scope="module")
def tables(session):
    rng = random.Random(2024)
    left = session.create_dataframe(
        [
            (
                i,
                rng.randrange(15),
                rng.choice(["red", "green", "blue", None]),
                rng.choice([None, float(rng.randrange(100))]),
            )
            for i in range(300)
        ],
        [("id", "long"), ("k", "long"), ("color", "string"), ("x", "double")],
    )
    right = session.create_dataframe(
        [(rng.randrange(15), rng.randrange(50)) for _ in range(80)],
        [("k2", "long"), ("w", "long")],
    )
    indexed = create_index(left, "id")
    return left, right, indexed


def both_ways(df) -> tuple[list, list]:
    """Rows from the unoptimized and the optimized pipeline."""
    session = df.session
    analyzed = df.analyzed_plan()
    raw = session.planner.plan(analyzed).execute().collect()
    optimized = session.planner.plan(session.optimizer.optimize(analyzed))
    return sorted(raw, key=repr), sorted(optimized.execute().collect(), key=repr)


def build_random_query(rng: random.Random, left, right, indexed):
    base = rng.choice([left, indexed.to_df()])
    df = base
    for _ in range(rng.randrange(3)):
        choice = rng.randrange(6)
        if choice == 0:
            df = df.filter(col("k") > rng.randrange(15))
        elif choice == 1:
            df = df.filter(
                (col("color") == rng.choice(["red", "green", "blue"]))
                | col("x").is_null()
            )
        elif choice == 2:
            df = df.filter(col("id") == rng.randrange(350))
        elif choice == 3:
            df = df.select("id", "k", "color", (col("k") * 2).alias("kk"), "x")
            df = df.select("id", "k", "color", "x")
        elif choice == 4:
            df = df.filter(col("id").is_not_null())
        else:
            df = df.limit(rng.randrange(1, 400))
    shape = rng.randrange(3)
    if shape == 0:
        df = df.join(right, on=df.col("k") == right.col("k2"))
        df = df.filter(col("w") > rng.randrange(50))
    elif shape == 1:
        df = df.group_by("k").agg(
            count().alias("n"),
            sum_("x").alias("sx"),
            min_("id").alias("lo"),
            max_("id").alias("hi"),
        )
    return df


def test_fifty_random_queries_agree(tables):
    left, right, indexed = tables
    rng = random.Random(7)
    for case in range(50):
        df = build_random_query(rng, left, right, indexed)
        raw, optimized = both_ways(df)
        assert raw == optimized, f"case {case} diverged:\n{df.explain()}"


def test_aggregate_with_having_agrees(tables, session):
    left, _right, _indexed = tables
    left.create_or_replace_temp_view("t")
    df = session.sql(
        "SELECT color, count(*) AS n, avg(x) AS mean FROM t "
        "WHERE k > 3 GROUP BY color HAVING count(*) > 5 ORDER BY n DESC"
    )
    raw, optimized = both_ways(df)
    assert raw == optimized


def test_three_way_join_agrees(tables, session):
    left, right, indexed = tables
    joined = (
        indexed.to_df()
        .join(right, on=indexed.col("k") == right.col("k2"))
        .join(left.alias("l2"), on=indexed.col("id") == col("l2.id"))
        .select(indexed.col("id"), col("w"), col("l2.color"))
    )
    raw, optimized = both_ways(joined)
    assert raw == optimized
    assert len(raw) > 0


def test_global_aggregate_agrees(tables):
    left, _right, _indexed = tables
    df = left.agg(
        count().alias("n"), avg("x").alias("mean"), sum_(lit(1)).alias("ones")
    )
    raw, optimized = both_ways(df)
    assert raw == optimized
