"""Ablation A6 — cTrie microbenchmarks (substrate of the index).

Prokopec et al. claim O(log32 n) inserts/lookups and **O(1)
snapshots**. We benchmark each op at two sizes; that snapshot cost does
not grow with trie size (the property MVCC versioning relies on:
``append_rows`` mints a version per micro-batch) is asserted in
``tests/ctrie/test_node_footprint.py``.
"""

from __future__ import annotations

import pytest

from repro.ctrie import CTrie

SIZES = [1_000, 100_000]


@pytest.fixture(scope="module", params=SIZES, ids=lambda s: f"n={s}")
def filled(request):
    trie = CTrie()
    for i in range(request.param):
        trie.insert(i, i)
    return request.param, trie


def test_insert_throughput(benchmark):
    def build():
        trie = CTrie()
        for i in range(10_000):
            trie.insert(i, i)
        return trie

    benchmark.pedantic(build, rounds=3, warmup_rounds=1, iterations=1)


def test_lookup_latency(benchmark, filled):
    size, trie = filled
    keys = [size // 4, size // 2, 3 * size // 4]

    def probe():
        for key in keys:
            assert trie.lookup(key) == key

    benchmark.pedantic(probe, rounds=50, warmup_rounds=5, iterations=1)


def test_snapshot_cost(benchmark, filled):
    _size, trie = filled
    benchmark.pedantic(trie.readonly_snapshot, rounds=50, warmup_rounds=5, iterations=1)
