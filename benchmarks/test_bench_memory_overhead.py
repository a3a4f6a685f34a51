"""Ablation A4 — memory overhead of the index.

Paper §1: the Indexed DataFrame *"has a relatively low memory overhead
in addition to the original data"*. This bench accounts bytes per row
for (a) the binary row batches alone, (b) batches + cTrie + backward
pointers, and (c) the vanilla columnar cache (run with ``-s`` to see the
line). That the index's *overhead* stays within a small multiple of the
raw data is asserted in ``tests/core/test_indexed_df.py``.

(Caveat: Python object overheads inflate everything equally; the
*ratios* are the meaningful output.)
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql import Session

ROWS = 50_000


@pytest.fixture(scope="module")
def session():
    s = Session(Config(executor_threads=2, shuffle_partitions=4))
    enable_indexing(s)
    yield s
    s.stop()


@pytest.fixture(scope="module")
def frames(session):
    df = session.create_dataframe(
        [(i, f"user{i}", i % 100) for i in range(ROWS)],
        [("id", "long"), ("name", "string"), ("grp", "long")],
        validate=False,
    )
    return df.cache(), create_index(df, "id")


def test_memory_bench(benchmark, frames):
    """Benchmark snapshot+stats collection itself (cheap, O(partitions))."""
    cached, indexed = frames
    stats = benchmark.pedantic(
        indexed.memory_stats, rounds=10, warmup_rounds=1, iterations=1
    )
    data, headers, index = stats["data_bytes"], stats["header_bytes"], stats["index_bytes"]
    print(
        f"\nrows={ROWS}  batches={data / ROWS:.1f} B/row "
        f"(incl. {headers / ROWS:.1f} B/row backward ptrs)  "
        f"index={index / ROWS:.1f} B/row  total={(data + index) / ROWS:.1f} B/row  "
        f"columnar cache={cached.cached_bytes() / ROWS:.1f} B/row  "
        f"index overhead={(headers + index) / (data - headers):.2f}x of raw data"
    )
