"""What a trie node costs: one object, no cell, no lock of its own.

After a snapshot every write re-copies the path to its key — up to 32
INodes per level — so the size of a node is the price of an append.
These tests pin the layout: ``INode.main`` and ``MainNode.prev`` are
plain slots, the only :class:`AtomicReference` is a trie's root, and
renewing a full CNode allocates its 32 INodes, one tuple and the CNode.
They also pin what that buys (Prokopec et al.; ablations A6 and A7):
a snapshot allocates the same handful of objects whatever the trie
holds, and an append-then-snapshot version cycle allocates in proportion
to the batch and the trie's depth, not its size.
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


def _allocated(fn) -> int:
    """Collector-tracked objects ``fn`` leaves behind (it must keep its
    results alive: with the collector off, only refcounts free)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        fn()
        return len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()


def _filled(size: int) -> CTrie:
    return CTrie.from_items((i, i) for i in range(size))


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
    kept = []
    allocated = _allocated(lambda: kept.append(full.renewed(fresh, trie)))
    assert allocated <= 34  # 32 INodes + the child tuple + the CNode
    assert all(
        child.gen is fresh and child.main is leaf and child is not old
        for child, old in zip(kept[0].array, full.array)
    )


def test_snapshot_is_constant_time():
    """O(1) snapshot: a root swap that copies nothing, at any size."""
    allocated = {}
    for size in (1_000, 50_000):
        trie, kept = _filled(size), []
        allocated[size] = _allocated(lambda: kept.append(trie.readonly_snapshot()))
        assert kept[0]._root.get().main is trie._root.get().main  # shared, not copied
    assert allocated[50_000] == allocated[1_000] <= 8


def test_ctrie_cycle_is_size_independent():
    """The design choice against a copied dict index (O(n) per version):
    minting a version after a 100-row batch re-copies only the paths to
    those rows, so 25x more data must cost far less than 25x more."""
    batch, allocated = 100, {}
    for size in (2_000, 50_000):
        trie = _filled(size)
        versions = [trie.readonly_snapshot()]

        def cycle():
            for i in range(batch):
                trie.insert(10**9 + i, i)
            versions.append(trie.readonly_snapshot())

        allocated[size] = _allocated(cycle)
        assert len(versions[0]) == size and len(versions[1]) == size + batch
    growth = allocated[50_000] / allocated[2_000]
    assert growth < 25 / 5, f"version cycle allocates {growth:.1f}x for 25x more data"
