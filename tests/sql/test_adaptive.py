"""Adaptive execution at the SQL layer: runtime replans never change results.

Runtime decisions (broadcast replan, pruning) change *plans* but never
*results* — checked by a seeded random predicate differential against
a pure-Python oracle, and by a replanned join against join rows
computed in Python.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import create_index, enable_indexing
from repro.sql.functions import col, count
from repro.sql.session import Session
from tests.conftest import small_config

CATS = ["red", "green", "blue", "cyan", None]


def make_rows(n=400, seed=7):
    rng = random.Random(seed)
    return [
        (
            i if rng.random() > 0.05 else None,
            rng.randint(0, 1000),
            CATS[rng.randrange(len(CATS))],
        )
        for i in range(n)
    ]


SCHEMA = [("id", "long"), ("val", "long"), ("cat", "string")]


def random_predicate(rng):
    """One random conjunction plus its pure-Python oracle."""
    conjuncts = []
    oracles = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            pivot = rng.randint(0, 400)
            conjuncts.append(col("id") >= pivot)
            oracles.append(lambda r, p=pivot: r[0] is not None and r[0] >= p)
        elif kind == 1:
            pivot = rng.randint(0, 400)
            conjuncts.append(col("id") < pivot)
            oracles.append(lambda r, p=pivot: r[0] is not None and r[0] < p)
        elif kind == 2:
            pivot = rng.randint(0, 1000)
            conjuncts.append(col("val") > pivot)
            oracles.append(lambda r, p=pivot: r[1] > p)
        elif kind == 3:
            values = rng.sample(["red", "green", "blue", "cyan"], rng.randint(1, 3))
            conjuncts.append(col("cat").isin(*values))
            oracles.append(lambda r, vs=tuple(values): r[2] in vs)
        else:
            conjuncts.append(col("id").is_not_null())
            oracles.append(lambda r: r[0] is not None)
    predicate = conjuncts[0]
    for c in conjuncts[1:]:
        predicate = predicate & c
    return predicate, (lambda r, fs=tuple(oracles): all(f(r) for f in fs))


@pytest.fixture(scope="module")
def adaptive():
    session = Session(small_config(batch_size_bytes=1024, max_row_bytes=256))
    enable_indexing(session)
    yield session
    session.stop()


class TestRandomPredicateDifferential:
    def test_adaptive_and_oracle_agree(self, adaptive):
        rows = make_rows()
        df = adaptive.create_dataframe(rows, SCHEMA)
        indexed_df = create_index(df, "id").to_df()
        rng = random.Random(42)
        for round_no in range(25):
            predicate, oracle = random_predicate(rng)
            # key=repr: rows may hold NULLs, which don't sort natively
            expected = sorted((r for r in rows if oracle(r)), key=repr)
            for frame in (df, indexed_df):
                got = sorted(frame.filter(predicate).collect_tuples(), key=repr)
                assert got == expected, f"round {round_no}: {predicate}"


class TestRuntimeBroadcastReplan:
    def test_misestimated_small_side_broadcasts(self, adaptive):
        rows = [(i % 6, i) for i in range(300)]
        big = adaptive.create_dataframe(rows, [("k", "long"), ("v", "long")])
        small = big.group_by("k").agg(count().alias("n"))
        joined = big.join(small, on=big.col("k") == small.col("k"))
        got = sorted(map(tuple, joined.collect_tuples()))
        # estimate 150 rows > threshold 50 → statically undecided;
        # measured 6 rows → broadcast at runtime
        assert "AdaptiveJoin" in joined.explain()
        assert "decision=broadcast(6 rows)" in joined.last_execution_plan()
        metrics = adaptive.ctx.scheduler.metrics.snapshot()
        assert metrics["runtime_broadcast_joins"] >= 1
        per_key = Counter(k for k, _v in rows)
        assert got == sorted((k, v, k, per_key[k]) for k, v in rows)
        assert len(got) == 300

    def test_genuinely_large_side_stays_shuffled(self, adaptive):
        left = adaptive.create_dataframe(
            [(i, i) for i in range(200)], [("a", "long"), ("x", "long")]
        )
        right = adaptive.create_dataframe(
            [(i, i) for i in range(200)], [("b", "long"), ("y", "long")]
        )
        joined = left.join(right, on=left.col("a") == right.col("b"))
        assert joined.count() == 200
        assert "decision=shuffle(200 rows)" in joined.last_execution_plan()
