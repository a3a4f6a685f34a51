"""Snapshot semantics: the MVCC foundation of the Indexed DataFrame."""

from __future__ import annotations

from repro.ctrie import CTrie


class TestReadonlySnapshot:
    def test_isolated_from_later_inserts(self):
        trie = CTrie()
        for i in range(100):
            trie.insert(i, "v1")
        snap = trie.readonly_snapshot()
        for i in range(100, 200):
            trie.insert(i, "v2")
        assert len(snap) == 100
        assert 150 not in snap
        assert len(trie) == 200

    def test_isolated_from_overwrites(self):
        trie = CTrie()
        trie.insert("k", "old")
        snap = trie.readonly_snapshot()
        trie.insert("k", "new")
        assert snap["k"] == "old"
        assert trie["k"] == "new"

    def test_chain_of_versions(self):
        trie = CTrie()
        versions = []
        for generation in range(10):
            trie.insert("counter", generation)
            versions.append(trie.readonly_snapshot())
        for generation, snap in enumerate(versions):
            assert snap["counter"] == generation

    def test_snapshot_of_empty(self):
        snap = CTrie().readonly_snapshot()
        assert len(snap) == 0


class TestWritableSnapshot:
    def test_fork_diverges_both_ways(self):
        trie = CTrie()
        trie.insert("shared", 0)
        fork = trie.snapshot()
        trie.insert("left", 1)
        fork.insert("right", 2)
        assert "right" not in trie and "left" not in fork
        assert trie["shared"] == 0 and fork["shared"] == 0

    def test_fork_overwrites_do_not_leak(self):
        trie = CTrie()
        for i in range(1000):
            trie.insert(i, "base")
        fork = trie.snapshot()
        for i in range(1000):
            fork.insert(i, "forked")
        assert all(trie[i] == "base" for i in range(0, 1000, 97))
        assert all(fork[i] == "forked" for i in range(0, 1000, 97))

    def test_nested_forks(self):
        root = CTrie()
        root.insert("x", 0)
        child = root.snapshot()
        child.insert("x", 1)
        grandchild = child.snapshot()
        grandchild.insert("x", 2)
        assert root["x"] == 0
        assert child["x"] == 1
        assert grandchild["x"] == 2
