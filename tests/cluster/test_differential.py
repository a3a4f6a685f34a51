"""Differential suite: multi-process backends must be bit-identical
to in-process execution — same rows, same aggregates, same metadata —
for RDD pipelines, SQL, and seeded random predicates."""

from __future__ import annotations

import random

import pytest

from repro.cluster import process_backend
from repro.engine.context import EngineContext
from repro.sql.session import Session
from tests.conftest import small_config

WORKER_COUNTS = [2, 4]

ROWS = [(i, f"n{i % 7}", (i * 13) % 101, i * 0.5) for i in range(400)]
SCHEMA = [("id", "long"), ("name", "string"), ("bucket", "long"), ("score", "double")]


def _cluster_config(executors: int):
    return small_config(
        executors=executors,
        default_parallelism=4,
        shuffle_partitions=4,
    )


def _run_rdd_pipelines(ctx: EngineContext) -> dict:
    base = ctx.parallelize(list(range(1000)), 8)
    pairs = base.map(lambda x: (x % 10, x))
    return {
        "map_filter": base.map(lambda x: x * 3).filter(lambda x: x % 7 == 0).collect(),
        "sum": base.map(lambda x: x * x).sum(),
        "reduce_by_key": sorted(pairs.reduce_by_key(lambda a, b: a + b).collect()),
        "group_sizes": sorted(
            (k, len(list(v))) for k, v in pairs.group_by_key().collect()
        ),
        "distinct": sorted(base.map(lambda x: x % 13).distinct().collect()),
        "count": base.filter(lambda x: x > 500).count(),
    }


@pytest.mark.parametrize("executors", WORKER_COUNTS)
def test_rdd_pipelines_bit_identical(executors):
    with EngineContext(_cluster_config(0)) as local_ctx:
        expected = _run_rdd_pipelines(local_ctx)
    with EngineContext(_cluster_config(executors), process_backend) as cluster_ctx:
        actual = _run_rdd_pipelines(cluster_ctx)
        stats = cluster_ctx.backend.stats()
    assert actual == expected
    assert stats["tasks_dispatched"] > 0, "nothing actually ran on workers"
    assert stats["workers_lost"] == 0


def _run_sql_suite(session: Session) -> dict:
    df = session.create_dataframe(ROWS, SCHEMA)
    df.create_or_replace_temp_view("t")
    small = session.create_dataframe(
        [(i, f"g{i}") for i in range(7)], [("bid", "long"), ("label", "string")]
    )
    small.create_or_replace_temp_view("labels")
    queries = {
        "filter": "SELECT id, name FROM t WHERE bucket < 30",
        "aggregate": "SELECT name, count(*), sum(score) FROM t GROUP BY name",
        "join": (
            "SELECT t.id, labels.label FROM t JOIN labels "
            "ON t.bucket % 7 = labels.bid WHERE t.id < 50"
        ),
        "distinct": "SELECT DISTINCT name FROM t",
        "order_limit": "SELECT id FROM t ORDER BY score DESC LIMIT 25",
    }
    return {
        key: sorted(session.sql(text).collect_tuples())
        for key, text in queries.items()
    }


@pytest.mark.parametrize("executors", WORKER_COUNTS)
def test_sql_bit_identical(executors):
    with Session(_cluster_config(0)) as local:
        expected = _run_sql_suite(local)
    with Session(_cluster_config(executors)) as clustered:
        actual = _run_sql_suite(clustered)
    assert actual == expected


@pytest.mark.parametrize("executors", WORKER_COUNTS)
def test_seeded_random_predicates(executors):
    """Fuzzed comparison predicates agree across backends."""
    rng = random.Random(2026)
    predicates = []
    for _ in range(12):
        column = rng.choice(["id", "bucket"])
        op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
        value = rng.randrange(0, 120)
        predicates.append(f"{column} {op} {value}")

    def run(session: Session) -> list:
        df = session.create_dataframe(ROWS, SCHEMA)
        df.create_or_replace_temp_view("t")
        return [
            sorted(
                session.sql(
                    f"SELECT id, bucket FROM t WHERE {predicate}"
                ).collect_tuples()
            )
            for predicate in predicates
        ]

    with Session(_cluster_config(0)) as local:
        expected = run(local)
    with Session(_cluster_config(executors)) as clustered:
        actual = run(clustered)
    assert actual == expected


def test_accumulators_and_broadcast_cross_process():
    with EngineContext(_cluster_config(2), process_backend) as ctx:
        acc = ctx.long_accumulator("seen")
        shared = ctx.broadcast({"offset": 1000})

        def bump(x, _acc=acc, _b=shared):
            _acc.add(1)
            return x + _b.value["offset"]

        out = ctx.parallelize(list(range(100)), 4).map(bump).collect()
        assert sorted(out) == [1000 + i for i in range(100)]
        assert acc.value == 100


def test_zero_executors_uses_local_backend():
    from repro.engine.backend import LocalBackend

    with EngineContext(_cluster_config(0)) as ctx:
        assert isinstance(ctx.backend, LocalBackend)
        assert ctx.parallelize([1, 2, 3], 2).sum() == 6
