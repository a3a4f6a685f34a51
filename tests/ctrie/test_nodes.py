"""Unit tests for cTrie node helpers (bitmap math, dual expansion)."""

from __future__ import annotations

from repro.ctrie.nodes import (
    CNode,
    Gen,
    INode,
    LNode,
    SNode,
    TNode,
    dual,
    flag_pos,
)


class TestFlagPos:
    def test_level_zero_uses_low_bits(self):
        flag, pos = flag_pos(0b10101, 0, 0)
        assert flag == 1 << 0b10101
        assert pos == 0

    def test_position_counts_set_bits_below(self):
        bitmap = 0b1011  # children at indices 0, 1, 3
        flag, pos = flag_pos(3, 0, bitmap)
        assert flag == 0b1000
        assert pos == 2  # two set bits below index 3

    def test_higher_levels_shift(self):
        hash_ = 0b11111_00000
        flag0, _ = flag_pos(hash_, 0, 0)
        flag5, _ = flag_pos(hash_, 5, 0)
        assert flag0 == 1 << 0
        assert flag5 == 1 << 0b11111


class TestCNodeUpdates:
    def test_renewed_children_copies_inodes_only(self):
        old, new = Gen(), Gen()
        leaf, sub = SNode("a", 1, 0), INode(CNode(0, (), old), old)
        node = CNode(0b11, [leaf, sub], old)
        children = node.renewed_children(new, trie=None)  # committed mains: no trie call
        assert children[0] is leaf
        assert children[1] is not sub and children[1].gen is new
        assert children[1].main is sub.main and sub.gen is old  # original untouched

    def test_updated_at(self):
        gen = Gen()
        node = CNode(0b1, [SNode("a", 1, 0)], gen)
        updated = node.updated_at(0, SNode("a", 99, 0), gen)
        assert updated.array[0].value == 99
        assert node.array[0].value == 1

    def test_removed_at(self):
        gen = Gen()
        node = CNode(0b11, [SNode("a", 1, 0), SNode("b", 2, 1)], gen)
        shrunk = node.removed_at(0, 0b1, gen)
        assert shrunk.bitmap == 0b10
        assert len(shrunk.array) == 1

    def test_to_contracted_single_snode(self):
        gen = Gen()
        node = CNode(0b1, [SNode("a", 1, 0)], gen)
        assert isinstance(node.to_contracted(5), TNode)
        assert isinstance(node.to_contracted(0), CNode)  # never at root


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


class TestLNode:
    def test_insert_remove(self):
        node = LNode([("a", 1), ("b", 2)])
        assert len(node.inserted("c", 3)) == 3
        assert len(node.inserted("a", 9)) == 2  # overwrite
        assert node.inserted("a", 9).get("a") == 9
        assert len(node.removed("a")) == 1

    def test_tnode_untombed(self):
        tomb = TNode("k", "v", 7)
        revived = tomb.untombed()
        assert isinstance(revived, SNode)
        assert (revived.key, revived.value, revived.hash) == ("k", "v", 7)
