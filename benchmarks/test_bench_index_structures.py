"""Ablation A7 — why a cTrie? Versioning cost vs a copied dict index.

The obvious alternative index is a hash map; but MVCC then needs a
full copy per version (one ``appendRows`` per micro-batch!), which is
O(n) in table size. The cTrie snapshot is O(1) plus an amortized
copy-on-write burst proportional to the *batch*, not the table.

Measured shape (see EXPERIMENTS.md): growing the table 10x grows the
dict's cycle cost ~30x but the cTrie's only ~4x. In CPython the dict
copy is C-speed while cTrie copy-on-write is Python-object work, so
the absolute crossover lies beyond laptop scale — the JVM original
pays far smaller trie constants. The asymptotic assertion the design
argument rests on is ``test_ctrie_cycle_is_size_independent`` in
``tests/ctrie/test_node_footprint.py``.
"""

from __future__ import annotations

import pytest

from repro.ctrie import CTrie

SIZES = [10_000, 100_000]
BATCH = 100


@pytest.mark.parametrize("size", SIZES)
def test_ctrie_version_cycle(benchmark, size):
    trie = CTrie()
    for i in range(size):
        trie.insert(i, i)
    counter = {"next": size}

    def cycle():
        start = counter["next"]
        counter["next"] += BATCH
        for i in range(start, start + BATCH):
            trie.insert(i, i)
        return trie.readonly_snapshot()  # O(1) version mint

    benchmark.pedantic(cycle, rounds=20, warmup_rounds=2, iterations=1)


@pytest.mark.parametrize("size", SIZES)
def test_dict_copy_version_cycle(benchmark, size):
    index = {i: i for i in range(size)}
    state = {"index": index, "next": size}

    def cycle():
        fresh = dict(state["index"])  # O(n) copy to preserve old version
        start = state["next"]
        state["next"] += BATCH
        for i in range(start, start + BATCH):
            fresh[i] = i
        state["index"] = fresh
        return fresh

    benchmark.pedantic(cycle, rounds=20, warmup_rounds=2, iterations=1)
