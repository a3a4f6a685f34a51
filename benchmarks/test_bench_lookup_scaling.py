"""Ablation A2 — point-lookup latency vs table size.

The cTrie gives sub-linear (O(log32 n)) lookups while the vanilla
equality filter scans the whole cached table. As rows grow 10³ → 10⁵,
the vanilla filter's latency should grow roughly linearly while the
indexed lookup stays nearly flat — the core latency claim of the
paper's title.
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql import Session
from repro.sql.functions import col

SIZES = [1_000, 10_000, 100_000]


def _session() -> Session:
    session = Session(
        Config(shuffle_partitions=4, default_parallelism=4)
    )
    enable_indexing(session)
    return session


@pytest.fixture(scope="module")
def tables():
    session = _session()
    built = {}
    for size in SIZES:
        df = session.create_dataframe(
            [(i, i % 97, float(i)) for i in range(size)],
            [("id", "long"), ("bucket", "long"), ("value", "double")],
            validate=False,
        )
        built[size] = (create_index(df, "id"), df.cache())
    yield built
    session.stop()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("system", ["indexed", "vanilla"])
def test_lookup_scaling(benchmark, tables, size, system):
    indexed, vanilla = tables[size]
    key = size // 2

    if system == "indexed":
        fn = lambda: indexed.get_rows_local(key)  # noqa: E731
    else:
        fn = lambda: vanilla.filter(col("id") == key).collect_tuples()  # noqa: E731

    rows = fn()
    assert len(rows) == 1 and rows[0][0] == key

    benchmark.pedantic(fn, rounds=20, warmup_rounds=2, iterations=1)
