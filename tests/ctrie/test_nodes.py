"""Unit tests for cTrie node helpers (renewal, dual expansion)."""

from __future__ import annotations

from repro.ctrie.nodes import (
    CNode,
    Gen,
    INode,
    LNode,
    SNode,
    dual,
)


class TestCNodeUpdates:
    def test_renewed_children_copies_inodes_only(self):
        old, new = Gen(), Gen()
        leaf, sub = SNode("a", 1, 0), INode(CNode(0, (), old), old)
        node = CNode(0b11, [leaf, sub], old)
        children = node.renewed_children(new, trie=None)  # committed mains: no trie call
        assert children[0] is leaf
        assert children[1] is not sub and children[1].gen is new
        assert children[1].main is sub.main and sub.gen is old  # original untouched


class TestDual:
    def test_differing_hashes_split(self):
        a = SNode("a", 1, 0b00001)
        b = SNode("b", 2, 0b00010)
        node = dual(a, b, 0, Gen())
        assert isinstance(node, CNode)
        assert node.bitmap == 0b110  # indices 1 and 2... (1<<1 | 1<<2)

    def test_same_prefix_descends(self):
        # Same low 5 bits → nested INode at the next level.
        a = SNode("a", 1, 0b00001_00001)
        b = SNode("b", 2, 0b00010_00001)
        node = dual(a, b, 0, Gen())
        assert isinstance(node, CNode)
        assert len(node.array) == 1
        assert isinstance(node.array[0], INode)

    def test_full_collision_becomes_lnode(self):
        a = SNode("a", 1, 42)
        b = SNode("b", 2, 42)
        node = dual(a, b, 70, Gen())  # beyond hash bits
        assert isinstance(node, LNode)
        assert node.get("a") == 1 and node.get("b") == 2
