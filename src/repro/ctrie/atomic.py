"""Compare-and-set for the concurrent trie.

CPython has no user-level CAS instruction, so we emulate one with a
lock held only for the pointer comparison and swap — the algorithms
built on top (GCAS, RDCSS) retain their retry structure and their
semantics; only the progress guarantee weakens from lock-free to
blocking, which is invisible to the paper's evaluation (single
process, GIL).

Two forms exist:

* :class:`AtomicReference` — a cell with its own lock. Only a trie's
  *root* is one (a root swap must exclude other root swaps of the same
  trie, nothing else).
* :func:`cas_main` / :func:`cas_prev` — CAS on a plain node slot
  (``INode.main``, ``MainNode.prev``) under the one module-level
  :data:`_cas_lock`. Trie nodes therefore carry no cell and no lock of
  their own: a node is one object. One lock for every node of every
  trie is sound because it is a *leaf*: the critical section is a
  compare and a store, calls nothing, and takes no other lock. It is
  also cheap: under the GIL two threads never run the section at once,
  and writers of one partition are already serialized by that
  partition's append lock, so a thread only ever waits here when a
  thread switch landed inside the two-bytecode section.

Comparison is by identity (``is``), exactly like a hardware CAS on a
pointer. Plain slot *reads* need no lock: a pointer load is atomic
under the GIL.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

#: Instrumented yield point for the deterministic interleaving driver
#: (:mod:`repro.analysis.interleave`). When installed, every atomic
#: operation — the cell methods, the slot CAS functions, and the trie's
#: own slot reads (``CTrie.gcas_read``) — calls the hook *on entry,
#: before taking any lock*, never while holding one, so the driver can
#: park a thread here without wedging other threads. ``None`` (the
#: default) costs one global read per operation.
_yield_hook: Callable[[str], None] | None = None

#: Guards every node-slot CAS (see the module docstring). Never held
#: across a call.
_cas_lock = threading.Lock()


def install_yield_hook(hook: Callable[[str], None]) -> None:
    """Install a yield hook; it receives the operation name per call."""
    global _yield_hook
    _yield_hook = hook


def clear_yield_hook() -> None:
    global _yield_hook
    _yield_hook = None


def cas_main(inode: Any, expect: Any, update: Any) -> bool:
    """Atomically set ``inode.main`` to ``update`` iff it *is* ``expect``."""
    if _yield_hook is not None:
        _yield_hook("compare_and_set")
    with _cas_lock:
        if inode.main is expect:
            inode.main = update
            return True
        return False


def cas_prev(node: Any, expect: Any, update: Any) -> bool:
    """Atomically set ``node.prev`` to ``update`` iff it *is* ``expect``."""
    if _yield_hook is not None:
        _yield_hook("compare_and_set")
    with _cas_lock:
        if node.prev is expect:
            node.prev = update
            return True
        return False


class AtomicReference:
    """A mutable cell supporting get / set / compare_and_set."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value: Any = None):
        self._value = value
        self._lock = threading.Lock()

    def get(self) -> Any:
        if _yield_hook is not None:
            _yield_hook("get")
        # A plain read is atomic under the GIL.
        return self._value

    def set(self, value: Any) -> None:
        if _yield_hook is not None:
            _yield_hook("set")
        with self._lock:
            self._value = value

    def compare_and_set(self, expect: Any, update: Any) -> bool:
        """Atomically set to ``update`` iff the current value *is*
        ``expect``. Returns True on success."""
        if _yield_hook is not None:
            _yield_hook("compare_and_set")
        with self._lock:
            if self._value is expect:
                self._value = update
                return True
            return False

    def get_and_set(self, value: Any) -> Any:
        if _yield_hook is not None:
            _yield_hook("get_and_set")
        with self._lock:
            old = self._value
            self._value = value
            return old

    def __repr__(self) -> str:
        return f"AtomicReference({self._value!r})"
