"""Node types of the concurrent trie.

The structure follows the reference Scala implementation
(``scala.collection.concurrent.TrieMap``):

* an :class:`INode` is an *indirection* node whose ``main`` slot is
  swung by GCAS; it carries the generation it was created in;
* a :class:`CNode` is a branch: a 32-bit bitmap plus a dense array of
  children (either :class:`SNode` leaves or nested :class:`INode`\\ s);
* an :class:`SNode` is a key/value leaf;
* a :class:`TNode` is a *tombed* singleton left behind by removals,
  compressed away lazily;
* an :class:`LNode` is a collision list used when two keys share the
  full 64-bit hash;
* a :class:`FailedNode` marks a GCAS that must roll back.

Generations (:class:`Gen`) are plain marker objects: a snapshot stamps
a fresh generation on the root, and writers copy any node of an older
generation before mutating beneath it — the copy-on-write that makes
snapshots O(1).

Every node is **one object**: ``INode.main`` and ``MainNode.prev`` are
plain ``__slots__`` entries, read directly and swung by
:func:`repro.ctrie.atomic.cas_main` / :func:`~repro.ctrie.atomic.cas_prev`
under the module's single CAS lock. A renewal copies up to 32 INodes
per level per snapshot, so what a node costs to allocate, track and
free is what an append after a snapshot costs.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.ctrie import atomic as _atomic

#: Branching factor 2**W = 32 children per level.
W = 5
#: Hash width; beyond this depth collisions go to an LNode.
HASH_BITS = 64


class Gen:
    """Generation marker; identity is all that matters."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gen@{id(self):#x}"


class MainNode:
    """Base for nodes an INode's ``main`` pointer can reference.

    ``prev`` carries GCAS bookkeeping: a non-None value means the node
    is not yet committed (or has failed and must roll back). Every
    subclass constructor sets it (to None, except :class:`FailedNode`).
    """

    __slots__ = ("prev",)


class FailedNode(MainNode):
    """Marks a failed GCAS; ``wrapped`` is the node to roll back to."""

    __slots__ = ("wrapped",)

    def __init__(self, wrapped: MainNode):
        self.wrapped = wrapped
        self.prev = wrapped


class SNode:
    """Immutable key/value leaf (a *branch*, not a main node)."""

    __slots__ = ("key", "value", "hash")

    def __init__(self, key: Any, value: Any, hash_: int):
        self.key = key
        self.value = value
        self.hash = hash_

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SNode({self.key!r}={self.value!r})"


class TNode(MainNode):
    """Tombed singleton: the last entry of a collapsed CNode."""

    __slots__ = ("key", "value", "hash")

    def __init__(self, key: Any, value: Any, hash_: int):
        self.prev = None
        self.key = key
        self.value = value
        self.hash = hash_

    def untombed(self) -> SNode:
        return SNode(self.key, self.value, self.hash)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TNode({self.key!r}={self.value!r})"


class LNode(MainNode):
    """Collision list for keys whose 64-bit hashes are fully equal."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[tuple[Any, Any]]):
        self.prev = None
        self.entries = tuple(entries)

    def inserted(self, key: Any, value: Any) -> "LNode":
        kept = [(k, v) for k, v in self.entries if k != key]
        kept.append((key, value))
        return LNode(kept)

    def removed(self, key: Any) -> "LNode":
        return LNode([(k, v) for k, v in self.entries if k != key])

    def get(self, key: Any) -> Any:
        for k, v in self.entries:
            if k == key:
                return v
        return _NO_VALUE

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LNode({list(self.entries)!r})"


class INode:
    """Indirection node; ``main`` is swung by GCAS."""

    __slots__ = ("main", "gen")

    def __init__(self, main: MainNode, gen: Gen):
        self.main = main
        self.gen = gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"INode(gen={self.gen!r})"


class CNode(MainNode):
    """Branch node: bitmap + dense child array, immutable."""

    __slots__ = ("bitmap", "array", "gen")

    def __init__(self, bitmap: int, array: Sequence[Any], gen: Gen):
        self.prev = None
        self.bitmap = bitmap
        self.array = array if array.__class__ is tuple else tuple(array)
        self.gen = gen

    # -- structural updates (all return new CNodes) ---------------------

    def updated_at(self, pos: int, branch: Any, gen: Gen) -> "CNode":
        arr = list(self.array)
        arr[pos] = branch
        return CNode(self.bitmap, arr, gen)

    def removed_at(self, pos: int, flag: int, gen: Gen) -> "CNode":
        arr = list(self.array)
        del arr[pos]
        return CNode(self.bitmap & ~flag, arr, gen)

    def renewed_children(self, gen: Gen, trie: Any) -> list:
        """This node's children with every INode copied into ``gen`` —
        the copy-on-write step of the snapshot algorithm, as a list the
        caller may still edit before freezing it into a CNode.

        One pass: a child whose main node is committed (``prev`` is
        None — every child, unless a GCAS is in flight on it) is copied
        from the slot it was just read from; anything else, and every
        child while an interleaving hook is installed, goes through
        ``trie.gcas_read`` as the algorithm prescribes.
        """
        direct = _atomic._yield_hook is None
        return [
            INode(
                main
                if direct and (main := child.main).prev is None
                else trie.gcas_read(child),
                gen,
            )
            if child.__class__ is INode
            else child
            for child in self.array
        ]

    def renewed(self, gen: Gen, trie: Any) -> "CNode":
        """Copy this CNode into ``gen``, copying INode children too."""
        return CNode(self.bitmap, tuple(self.renewed_children(gen, trie)), gen)

    # -- compression -----------------------------------------------------

    def to_compressed(self, trie: Any, level: int, gen: Gen) -> MainNode:
        """Resurrect tombed children and contract if possible."""
        arr = []
        for child in self.array:
            if isinstance(child, INode):
                main = trie.gcas_read(child)
                if isinstance(main, TNode):
                    arr.append(main.untombed())
                else:
                    arr.append(child)
            else:
                arr.append(child)
        return CNode(self.bitmap, arr, gen).to_contracted(level)

    def to_contracted(self, level: int) -> MainNode:
        """A single-SNode CNode below the root contracts to a TNode."""
        if level > 0 and len(self.array) == 1:
            only = self.array[0]
            if isinstance(only, SNode):
                return TNode(only.key, only.value, only.hash)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CNode(bitmap={self.bitmap:#x}, children={len(self.array)})"


class _NoValue:
    """Sentinel distinct from any user value (None is a legal value)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<no-value>"


_NO_VALUE = _NoValue()
#: Sentinel returned by internal ops to request a retry from the root.
RESTART = _NoValue()


def flag_pos(hash_: int, level: int, bitmap: int) -> tuple[int, int]:
    """Bitmap flag and dense-array position for ``hash_`` at ``level``."""
    index = (hash_ >> level) & 0x1F
    flag = 1 << index
    pos = (bitmap & (flag - 1)).bit_count()
    return flag, pos


def dual(
    first: SNode, second: SNode, level: int, gen: Gen
) -> MainNode:
    """Build the subtree distinguishing two colliding SNodes.

    Descends levels until the hash bits differ; identical 64-bit hashes
    end in an LNode.
    """
    if level >= HASH_BITS:
        return LNode([(first.key, first.value), (second.key, second.value)])
    xidx = (first.hash >> level) & 0x1F
    yidx = (second.hash >> level) & 0x1F
    bmp = (1 << xidx) | (1 << yidx)
    if xidx == yidx:
        sub = INode(dual(first, second, level + W, gen), gen)
        return CNode(bmp, [sub], gen)
    if xidx < yidx:
        return CNode(bmp, [first, second], gen)
    return CNode(bmp, [second, first], gen)


def iterate_main(trie: Any, node: MainNode | None) -> Iterator[tuple[Any, Any]]:
    """Depth-first iteration over all key/value pairs under ``node``."""
    if node is None:
        return
    if isinstance(node, CNode):
        for child in node.array:
            if isinstance(child, SNode):
                yield (child.key, child.value)
            elif isinstance(child, INode):
                yield from iterate_main(trie, trie.gcas_read(child))
    elif isinstance(node, TNode):
        yield (node.key, node.value)
    elif isinstance(node, LNode):
        yield from node.entries
