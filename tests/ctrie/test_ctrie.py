"""Functional tests for the concurrent trie."""

from __future__ import annotations

import pytest

from repro.ctrie import CTrie
from repro.ctrie.nodes import LNode
from repro.errors import ConcurrencyError


class TestBasicOperations:
    def test_empty(self):
        trie = CTrie()
        assert trie.lookup("missing") is None
        assert "missing" not in trie
        assert len(trie) == 0
        assert trie.to_dict() == {}

    def test_insert_lookup(self):
        trie = CTrie()
        trie.insert("a", 1)
        assert trie["a"] == 1
        assert "a" in trie

    def test_overwrite(self):
        trie = CTrie()
        trie.insert("k", 1)
        trie.insert("k", 2)
        assert trie["k"] == 2
        assert len(trie) == 1

    def test_insert_returns_what_it_replaced(self):
        trie = CTrie()
        assert trie.insert("k", 1) is None
        assert trie.insert("k", 2) == 1
        assert trie.insert("k", 3, default="absent") == 2
        assert trie.insert("other", 9, default="absent") == "absent"
        snap = trie.snapshot()  # next write renews the path first
        assert trie.insert("k", 4) == 3 and snap["k"] == 3

    def test_none_is_a_valid_value(self):
        trie = CTrie()
        trie.insert("k", None)
        assert "k" in trie
        assert trie.lookup("k", "default") is None

    def test_none_is_a_valid_key(self):
        trie = CTrie()
        trie.insert(None, "v")
        assert trie[None] == "v"

    def test_many_inserts(self):
        trie = CTrie()
        for i in range(20_000):
            trie.insert(i, i * 2)
        assert len(trie) == 20_000
        assert trie[19_999] == 39_998
        assert trie[0] == 0

    def test_mixed_key_types(self):
        trie = CTrie()
        trie.insert(1, "int")
        trie.insert("1", "str")
        trie.insert((1,), "tuple")
        assert trie[1] == "int"
        assert trie["1"] == "str"
        assert trie[(1,)] == "tuple"

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            _ = CTrie()["nope"]

    def test_delitem_missing_raises(self):
        with pytest.raises(KeyError):
            del CTrie()["nope"]


class TestRemoval:
    def test_remove_returns_value(self):
        trie = CTrie()
        trie.insert("k", 5)
        assert trie.remove("k") == 5
        assert "k" not in trie

    def test_remove_missing_returns_none(self):
        assert CTrie().remove("nope") is None

    def test_remove_then_reinsert(self):
        trie = CTrie()
        trie.insert("k", 1)
        trie.remove("k")
        trie.insert("k", 2)
        assert trie["k"] == 2

    def test_remove_contracts_structure(self):
        trie = CTrie()
        for i in range(1000):
            trie.insert(i, i)
        for i in range(999):
            trie.remove(i)
        assert len(trie) == 1
        assert trie[999] == 999
        # After removing the last entry the trie is usable and empty.
        trie.remove(999)
        assert len(trie) == 0
        trie.insert("again", 1)
        assert trie["again"] == 1

    def test_interleaved_insert_remove(self):
        trie = CTrie()
        for round_ in range(5):
            for i in range(500):
                trie.insert(i, (round_, i))
            for i in range(0, 500, 2):
                trie.remove(i)
            assert len(trie) == 250
            for i in range(1, 500, 2):
                assert trie[i] == (round_, i)
            for i in range(1, 500, 2):
                trie.remove(i)
            assert len(trie) == 0


class _Collider:
    """Keys with identical portable hashes → LNode collision lists."""

    def __init__(self, tag: str):
        self.tag = tag

    def __hash__(self):  # pragma: no cover - not used by the trie
        return 0

    def __eq__(self, other):
        return isinstance(other, _Collider) and self.tag == other.tag


class TestHashCollisions:
    @pytest.fixture(autouse=True)
    def _patch_hash(self, monkeypatch):
        # Force full 64-bit collisions so LNodes are exercised.
        monkeypatch.setattr(
            CTrie, "_hash", staticmethod(lambda key: 12345 if isinstance(key, _Collider) else 99)
        )

    def test_colliding_keys_coexist(self):
        trie = CTrie()
        a, b, c = _Collider("a"), _Collider("b"), _Collider("c")
        trie.insert(a, 1)
        trie.insert(b, 2)
        trie.insert(c, 3)
        assert trie[a] == 1 and trie[b] == 2 and trie[c] == 3
        assert len(trie) == 3

    def test_collision_overwrite(self):
        trie = CTrie()
        a = _Collider("a")
        trie.insert(a, 1)
        trie.insert(_Collider("b"), 2)
        trie.insert(a, 10)
        assert trie[a] == 10

    def test_collision_removal_to_tomb(self):
        trie = CTrie()
        a, b = _Collider("a"), _Collider("b")
        trie.insert(a, 1)
        trie.insert(b, 2)
        assert trie.remove(a) == 1
        assert trie[b] == 2
        assert a not in trie
        assert trie.remove(b) == 2
        assert len(trie) == 0


class TestIteration:
    def test_items_complete(self):
        trie = CTrie()
        expected = {}
        for i in range(500):
            trie.insert(f"key{i}", i)
            expected[f"key{i}"] = i
        assert dict(trie.items()) == expected
        assert set(trie.keys()) == set(expected)
        assert sorted(trie.values()) == sorted(expected.values())

    def test_iteration_is_stable_against_writes(self):
        trie = CTrie()
        for i in range(100):
            trie.insert(i, i)
        seen = []
        for key, value in trie.items():
            seen.append((key, value))
            trie.insert(key + 1000, value)  # mutate during iteration
        assert len(seen) == 100


class TestReadonlySafety:
    def test_readonly_rejects_writes(self):
        trie = CTrie()
        trie.insert("a", 1)
        snapshot = trie.readonly_snapshot()
        with pytest.raises(ConcurrencyError):
            snapshot.insert("b", 2)
        with pytest.raises(ConcurrencyError):
            snapshot.remove("a")

    def test_readonly_of_readonly_is_self(self):
        snapshot = CTrie().readonly_snapshot()
        assert snapshot.readonly_snapshot() is snapshot
