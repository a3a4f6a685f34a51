"""What a trie node costs: one object, no cell, no lock of its own.

After a snapshot every write re-copies the path to its key — up to 32
INodes per level — so the size of a node is the price of an append.
These tests pin the layout: ``INode.main`` and ``MainNode.prev`` are
plain slots, the only :class:`AtomicReference` is a trie's root, and
renewing a full CNode allocates its 32 INodes, one tuple and the CNode.
"""

from __future__ import annotations

import gc
import threading

from repro.ctrie import AtomicReference, CTrie
from repro.ctrie.nodes import CNode, Gen, INode, MainNode, SNode

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


def _walk(node, seen):
    """Every INode / main node / leaf reachable from ``node``."""
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if isinstance(node, INode):
            stack.append(node.main)
        elif isinstance(node, CNode):
            stack.extend(node.array)
        if isinstance(node, MainNode) and node.prev is not None:
            stack.append(node.prev)


def _slot_values(node):
    for cls in type(node).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(node, name):
                yield getattr(node, name)


def test_nodes_hold_no_cell_and_no_lock():
    trie = CTrie()
    for i in range(10_000):
        trie.insert(i, i)
    snap = trie.readonly_snapshot()
    for i in range(100):
        trie.insert(i * 97, -i)
    assert snap[97] == 97 and trie[97] == -1

    nodes: dict[int, object] = {}
    for root in (trie._root.get(), snap._root.get()):
        _walk(root, nodes)
    assert sum(isinstance(n, SNode) for n in nodes.values()) >= 10_000
    for node in nodes.values():
        for value in _slot_values(node):
            assert not isinstance(value, (AtomicReference, *_LOCK_TYPES)), node

    # Process-wide: every AtomicReference alive is some trie's root.
    gc.collect()
    objects = gc.get_objects()
    cells = [o for o in objects if type(o) is AtomicReference]
    roots = {id(o._root) for o in objects if type(o) is CTrie}
    assert {id(c) for c in cells} <= roots
    assert id(trie._root) in roots and id(snap._root) in roots


def test_renewing_a_full_cnode_allocates_34_objects():
    gen = Gen()
    leaf = CNode(0, (), gen)
    full = CNode(0xFFFFFFFF, tuple(INode(leaf, gen) for _ in range(32)), gen)
    trie, fresh = CTrie(), Gen()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        renewed = full.renewed(fresh, trie)
        after = len(gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    assert after - before <= 34  # 32 INodes + the child tuple + the CNode
    assert all(
        child.gen is fresh and child.main is leaf and child is not old
        for child, old in zip(renewed.array, full.array)
    )
