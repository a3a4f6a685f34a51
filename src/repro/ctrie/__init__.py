"""Concurrent trie (cTrie) with constant-time snapshots.

Implementation of Prokopec et al., *Concurrent Tries with Efficient
Non-blocking Snapshots* (PPoPP 2012) — the index structure inside every
Indexed DataFrame partition (paper §2). Key properties the paper's
system relies on:

* sub-linear (O(log32 n)) lookup and insert for point queries;
* lock-free-style concurrent readers and writers (CAS emulated by a
  locked compare-and-store on plain node slots — a node is one object);
* **O(1) snapshots** via generation stamping — the mechanism behind the
  Indexed DataFrame's multi-version concurrency: queries read a stable
  snapshot while appends keep mutating the live trie.
"""

from repro.ctrie.atomic import AtomicReference
from repro.ctrie.ctrie import CTrie

__all__ = ["AtomicReference", "CTrie"]
