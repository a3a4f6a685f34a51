"""The concurrent trie proper: GCAS updates, RDCSS root swaps,
generation-stamped O(1) snapshots.

The control flow mirrors the reference Scala implementation:

* ``GCAS`` (generation-compare-and-swap) publishes a new main node on
  an INode only if the root generation has not changed underneath the
  writer — the mechanism that isolates snapshots from in-flight writes;
* ``RDCSS`` (restricted double-compare single-swap) swings the root to
  a new generation atomically with respect to the old root's main node;
* writers descending through a node of an older generation first copy
  it into the current generation (``CNode.renewed``), so a snapshot
  never observes post-snapshot mutations.

Public surface is dict-like (``insert``/``lookup``/``remove``,
``__getitem__`` and friends) plus :meth:`CTrie.snapshot` and
:meth:`CTrie.readonly_snapshot`.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.ctrie import atomic as _atomic
from repro.ctrie.atomic import AtomicReference, cas_main, cas_prev
from repro.ctrie.nodes import (
    RESTART,
    W,
    CNode,
    FailedNode,
    Gen,
    INode,
    LNode,
    MainNode,
    SNode,
    TNode,
    _NO_VALUE,
    dual,
    flag_pos,
    iterate_main,
)
from repro.engine.partitioner import portable_hash
from repro.errors import ConcurrencyError


class _RDCSSDescriptor:
    """In-flight root swap: ``old`` → ``nv`` iff ``old``'s main is
    still ``expected_main``."""

    __slots__ = ("old", "expected_main", "nv", "committed")

    def __init__(self, old: INode, expected_main: MainNode, nv: INode):
        self.old = old
        self.expected_main = expected_main
        self.nv = nv
        self.committed = False


class CTrie:
    """A concurrent hash trie map with constant-time snapshots.

    Example::

        trie = CTrie()
        trie.insert("a", 1)
        snap = trie.readonly_snapshot()
        trie.insert("a", 2)
        assert snap["a"] == 1 and trie["a"] == 2
    """

    def __init__(self, root: INode | None = None, readonly: bool = False):
        if root is None:
            gen = Gen()
            root = INode(CNode(0, [], gen), gen)
        self._root = AtomicReference(root)
        self._readonly = readonly

    #: Key hashing, overridable per class (tests force collisions).
    _hash = staticmethod(portable_hash)

    # ------------------------------------------------------------------
    # GCAS
    # ------------------------------------------------------------------

    def gcas_read(self, inode: INode) -> MainNode:
        """The committed main node of ``inode``.

        The common case is two slot reads: a main node whose ``prev``
        is None is committed. The traversal loops below inline exactly
        this, so the yield hook fires once per INode visited there too.
        """
        if _atomic._yield_hook is not None:
            _atomic._yield_hook("get")
        main = inode.main
        if main.prev is not None:
            return self._gcas_complete(inode, main)
        return main

    def _gcas_complete(self, inode: INode, main: MainNode) -> MainNode:
        while True:
            if _atomic._yield_hook is not None:
                _atomic._yield_hook("get")
            prev = main.prev
            if prev is None:
                return main
            root = self._rdcss_read_root(abort=True)
            if prev.__class__ is FailedNode:
                # A failed commit: roll the INode back to the old main.
                if cas_main(inode, main, prev.wrapped):
                    return prev.wrapped
                main = inode.main
                continue
            if root.gen is inode.gen and not self._readonly:
                # Still in the current generation: try to commit.
                if cas_prev(main, prev, None):
                    return main
                continue
            # Generation moved on (a snapshot happened): fail the write.
            cas_prev(main, prev, FailedNode(prev))
            main = inode.main

    def _gcas(self, inode: INode, old: MainNode, new: MainNode) -> bool:
        # ``new`` is private until the CAS below publishes it.
        new.prev = old
        if cas_main(inode, old, new):
            self._gcas_complete(inode, new)
            return new.prev is None
        return False

    # ------------------------------------------------------------------
    # RDCSS on the root
    # ------------------------------------------------------------------

    def _rdcss_read_root(self, abort: bool = False) -> INode:
        root = self._root.get()
        if isinstance(root, _RDCSSDescriptor):
            return self._rdcss_complete(abort)
        return root

    def _rdcss_complete(self, abort: bool) -> INode:
        while True:
            value = self._root.get()
            if isinstance(value, INode):
                return value
            desc: _RDCSSDescriptor = value
            if abort:
                if self._root.compare_and_set(desc, desc.old):
                    return desc.old
                continue
            old_main = self.gcas_read(desc.old)
            if old_main is desc.expected_main:
                if self._root.compare_and_set(desc, desc.nv):
                    desc.committed = True
                    return desc.nv
                continue
            if self._root.compare_and_set(desc, desc.old):
                return desc.old

    def _rdcss_root(self, old: INode, expected_main: MainNode, nv: INode) -> bool:
        desc = _RDCSSDescriptor(old, expected_main, nv)
        if self._root.compare_and_set(old, desc):
            self._rdcss_complete(abort=False)
            return desc.committed
        return False

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    @classmethod
    def from_items(cls, items: "Any") -> "CTrie":
        """Bulk-load a fresh trie from ``(key, value)`` pairs.

        The checkpoint-restore path: a recovered cTrie is rebuilt from
        its serialized manifest (``to_dict``) before the trie is shared,
        so the loop needs no CAS retries beyond the ones ``insert``
        already performs on a private structure.
        """
        trie = cls()
        insert = trie.insert
        for key, value in items:
            insert(key, value)
        return trie

    def insert(self, key: Any, value: Any, default: Any = None) -> Any:
        """Insert or overwrite ``key``; returns the value it replaced
        (``default`` when the key was absent) — an upsert in a single
        traversal, which is what lets an append thread a backward chain
        without a separate lookup."""
        if self._readonly:
            raise ConcurrencyError("cannot insert into a read-only snapshot")
        h = self._hash(key)
        while True:
            root = self._rdcss_read_root()
            replaced = self._iinsert(root, key, value, h, root.gen)
            if replaced is not RESTART:
                return default if replaced is _NO_VALUE else replaced

    def _iinsert(
        self, inode: INode, key: Any, value: Any, h: int, startgen: Gen
    ) -> Any:
        """Returns the replaced value, ``_NO_VALUE``, or ``RESTART``."""
        level = 0
        parent: INode | None = None
        while True:
            if _atomic._yield_hook is not None:
                _atomic._yield_hook("get")
            main = inode.main
            if main.prev is not None:
                main = self._gcas_complete(inode, main)
            if main.__class__ is CNode:
                bitmap = main.bitmap
                flag = 1 << ((h >> level) & 0x1F)
                pos = (bitmap & (flag - 1)).bit_count()
                child = main.array[pos] if bitmap & flag else None
                if child.__class__ is INode:
                    if child.gen is startgen:
                        parent, inode = inode, child
                        level += W
                        continue
                    if self._gcas(inode, main, main.renewed(startgen, self)):
                        continue
                    return RESTART
                # The update lands in this CNode: build its successor in
                # one step, renewing the children on the way if the node
                # predates the current generation.
                children = (
                    list(main.array)
                    if main.gen is startgen
                    else main.renewed_children(startgen, self)
                )
                replaced = _NO_VALUE
                if child is None:
                    children.insert(pos, SNode(key, value, h))
                elif child.hash == h and child.key == key:
                    replaced = child.value
                    children[pos] = SNode(key, value, h)
                else:
                    children[pos] = INode(
                        dual(child, SNode(key, value, h), level + W, startgen),
                        startgen,
                    )
                new = CNode(bitmap | flag, tuple(children), startgen)
                return replaced if self._gcas(inode, main, new) else RESTART
            if main.__class__ is TNode:
                self._clean(parent, level - W)
                return RESTART
            if main.__class__ is LNode:
                replaced = main.get(key)
                if self._gcas(inode, main, main.inserted(key, value)):
                    return replaced
                return RESTART
            raise ConcurrencyError(f"unexpected main node {main!r}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, key: Any, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default``."""
        h = self._hash(key)
        while True:
            root = self._rdcss_read_root()
            result = self._ilookup(root, key, h, root.gen)
            if result is not RESTART:
                return default if result is _NO_VALUE else result

    def _ilookup(self, inode: INode, key: Any, h: int, startgen: Gen) -> Any:
        readonly = self._readonly
        level = 0
        parent: INode | None = None
        while True:
            if _atomic._yield_hook is not None:
                _atomic._yield_hook("get")
            main = inode.main
            if main.prev is not None:
                main = self._gcas_complete(inode, main)
            if main.__class__ is CNode:
                bitmap = main.bitmap
                flag = 1 << ((h >> level) & 0x1F)
                if not bitmap & flag:
                    return _NO_VALUE
                child = main.array[(bitmap & (flag - 1)).bit_count()]
                if child.__class__ is INode:
                    # A read-only snapshot never renews: its nodes all
                    # predate the generation the live trie moved to.
                    if readonly or child.gen is startgen:
                        parent, inode = inode, child
                        level += W
                        continue
                    if self._gcas(inode, main, main.renewed(startgen, self)):
                        continue
                    return RESTART
                if child.hash == h and child.key == key:
                    return child.value
                return _NO_VALUE
            if main.__class__ is TNode:
                if readonly:
                    if main.hash == h and main.key == key:
                        return main.value
                    return _NO_VALUE
                self._clean(parent, level - W)
                return RESTART
            if main.__class__ is LNode:
                return main.get(key)
            raise ConcurrencyError(f"unexpected main node {main!r}")

    # ------------------------------------------------------------------
    # Remove
    # ------------------------------------------------------------------

    def remove(self, key: Any) -> Any:
        """Remove ``key``; returns the removed value or None."""
        if self._readonly:
            raise ConcurrencyError("cannot remove from a read-only snapshot")
        h = self._hash(key)
        while True:
            root = self._rdcss_read_root()
            result = self._iremove(root, key, h, 0, None, root.gen)
            if result is not RESTART:
                return None if result is _NO_VALUE else result

    def _iremove(
        self,
        inode: INode,
        key: Any,
        h: int,
        level: int,
        parent: INode | None,
        startgen: Gen,
    ) -> Any:
        main = self.gcas_read(inode)
        if isinstance(main, CNode):
            flag, pos = flag_pos(h, level, main.bitmap)
            if (main.bitmap & flag) == 0:
                return _NO_VALUE
            child = main.array[pos]
            if isinstance(child, INode):
                if startgen is child.gen:
                    result = self._iremove(child, key, h, level + W, inode, startgen)
                elif self._gcas(inode, main, main.renewed(startgen, self)):
                    result = self._iremove(inode, key, h, level, parent, startgen)
                else:
                    result = RESTART
            else:
                if child.hash == h and child.key == key:
                    contracted = main.removed_at(pos, flag, startgen).to_contracted(level)
                    if self._gcas(inode, main, contracted):
                        result = child.value
                    else:
                        result = RESTART
                else:
                    result = _NO_VALUE
            if result is RESTART or result is _NO_VALUE:
                return result
            # The subtree may have collapsed to a tomb: propagate upward.
            if parent is not None:
                after = self.gcas_read(inode)
                if isinstance(after, TNode):
                    self._clean_parent(parent, inode, h, level - W, startgen)
            return result
        if isinstance(main, TNode):
            self._clean(parent, level - W)
            return RESTART
        if isinstance(main, LNode):
            value = main.get(key)
            if value is _NO_VALUE:
                return _NO_VALUE
            shrunk: MainNode = main.removed(key)
            if len(shrunk) == 1:
                only_key, only_value = shrunk.entries[0]
                shrunk = TNode(only_key, only_value, self._hash(only_key))
            if self._gcas(inode, main, shrunk):
                return value
            return RESTART
        raise ConcurrencyError(f"unexpected main node {main!r}")

    # ------------------------------------------------------------------
    # Cleaning (lazy compression after removals / tombs)
    # ------------------------------------------------------------------

    def _clean(self, inode: INode | None, level: int) -> None:
        if inode is None:
            return
        main = self.gcas_read(inode)
        if isinstance(main, CNode):
            self._gcas(inode, main, main.to_compressed(self, level, inode.gen))

    def _clean_parent(
        self, parent: INode, inode: INode, h: int, level: int, startgen: Gen
    ) -> None:
        while True:
            pmain = self.gcas_read(parent)
            if not isinstance(pmain, CNode):
                return
            flag, pos = flag_pos(h, level, pmain.bitmap)
            if (pmain.bitmap & flag) == 0:
                return
            if pmain.array[pos] is not inode:
                return
            main = self.gcas_read(inode)
            if isinstance(main, TNode):
                contracted = pmain.updated_at(pos, main.untombed(), inode.gen)
                contracted = contracted.to_contracted(level)
                if not self._gcas(parent, pmain, contracted):
                    if self._rdcss_read_root().gen is startgen:
                        continue
            return

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> "CTrie":
        """O(1) *writable* snapshot.

        Both this trie and the returned snapshot receive fresh
        generations; they lazily copy shared structure on write.
        """
        while True:
            root = self._rdcss_read_root()
            expected = self.gcas_read(root)
            if self._rdcss_root(root, expected, INode(expected, Gen())):
                return CTrie(root=INode(expected, Gen()))

    def readonly_snapshot(self) -> "CTrie":
        """O(1) *read-only* snapshot (cheaper reads: no renew on path)."""
        if self._readonly:
            return self
        while True:
            root = self._rdcss_read_root()
            expected = self.gcas_read(root)
            if self._rdcss_root(root, expected, INode(expected, Gen())):
                return CTrie(root=root, readonly=True)

    @property
    def readonly(self) -> bool:
        return self._readonly

    # ------------------------------------------------------------------
    # Dict-like surface
    # ------------------------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        result = self.lookup(key, _NO_VALUE)
        if result is _NO_VALUE:
            raise KeyError(key)
        return result

    def __setitem__(self, key: Any, value: Any) -> None:
        self.insert(key, value)

    def __delitem__(self, key: Any) -> None:
        if self.lookup(key, _NO_VALUE) is _NO_VALUE:
            raise KeyError(key)
        self.remove(key)

    def __contains__(self, key: Any) -> bool:
        return self.lookup(key, _NO_VALUE) is not _NO_VALUE

    def get(self, key: Any, default: Any = None) -> Any:
        return self.lookup(key, default)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Iterate a consistent view (a read-only snapshot is taken
        first unless this trie is already read-only)."""
        source = self if self._readonly else self.readonly_snapshot()
        root = source._rdcss_read_root()
        yield from iterate_main(source, source.gcas_read(root))

    def keys(self) -> Iterator[Any]:
        return (k for k, _v in self.items())

    def values(self) -> Iterator[Any]:
        return (v for _k, v in self.items())

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def to_dict(self) -> dict[Any, Any]:
        return dict(self.items())

    def __repr__(self) -> str:
        mode = "readonly" if self._readonly else "live"
        return f"CTrie({mode}, ~{len(self)} entries)"
