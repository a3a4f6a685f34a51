"""Ship-once shared-memory store for heavy leaf data.

The cluster codec never pickles row-batch bytes, relation partitions,
or broadcast values into a task envelope. Instead the driver publishes
each heavy object **once** into a named ``multiprocessing.shared_memory``
segment and the envelope carries only a token; workers attach the
segment on first use (zero-copy for the binary row batches) and cache
the rebuilt object, so every subsequent task referencing the same leaf
pays one dictionary lookup.

Segment layout (one segment per shipped object)::

    [ meta length : 8 bytes LE ][ meta pickle ][ raw batch data ... ]

For a :class:`~repro.core.partition.PartitionSnapshot` the meta block
holds the schema, pointer layout, cTrie manifest (key → packed head
pointer), counters, and zone maps, while the data region is the
concatenated *used prefixes* of the partition's row batches — exactly
the bytes below the snapshot watermark, which are immutable by the
MVCC contract. The worker rebuilds a read-only view whose
:class:`~repro.core.rowbatch.BatchManager` buffers are memoryviews
straight into the mapped segment: no copy, no re-decode.

Lifecycle: the **driver** owns every segment. A segment lives exactly
as long as the object it ships: the store maps each shipped object
weakly to its token, the object's death queues the segment, and the
next publish unlinks it; backend shutdown unlinks the rest. A snapshot
is shipped once per object, so two versions a query alternates
between keep one segment each, and a broadcast join's build side goes
with its job. POSIX keeps mapped segments readable after unlink, so a
worker mid-scan on a dropped version is unaffected. Workers only
attach (suppressing the attach-time resource-tracker registration so
no tracker ever tries to unlink a segment it does not own).
"""

from __future__ import annotations

import os
import secrets
import struct
import threading
import weakref
from collections import deque
from multiprocessing import shared_memory
from typing import Any, Callable

from repro.core.partition import PartitionSnapshot
from repro.core.rowbatch import BatchManager
from repro.core.rowcodec import codec_for
from repro.serialize import PICKLE_PROTOCOL, dumps, loads

_META_LEN = struct.Struct("<Q")

#: Worker-side cap on attached segments before the least recently used
#: one is closed (superseded snapshot versions accumulate otherwise).
_WORKER_CACHE_SEGMENTS = 64

#: Evicted segments whose zero-copy views are still referenced by live
#: task state: the mapping must stay valid, so they are parked here and
#: reclaimed by the OS at process exit.
_ZOMBIES: list = []


def _segment_name() -> str:
    return f"repro_{os.getpid()}_{secrets.token_hex(6)}"


def _write_segment(meta: dict, data_parts: list[bytes]) -> shared_memory.SharedMemory:
    meta_bytes = dumps(meta)
    total = _META_LEN.size + len(meta_bytes) + sum(len(p) for p in data_parts)
    shm = shared_memory.SharedMemory(
        name=_segment_name(), create=True, size=max(total, 1)
    )
    buf = shm.buf
    _META_LEN.pack_into(buf, 0, len(meta_bytes))
    offset = _META_LEN.size
    buf[offset : offset + len(meta_bytes)] = meta_bytes
    offset += len(meta_bytes)
    for part in data_parts:
        buf[offset : offset + len(part)] = part
        offset += len(part)
    return shm


def _read_segment(shm: shared_memory.SharedMemory) -> tuple[dict, int]:
    """Returns ``(meta, data_offset)`` for an attached segment."""
    (meta_len,) = _META_LEN.unpack_from(shm.buf, 0)
    start = _META_LEN.size
    meta = loads(bytes(shm.buf[start : start + meta_len]))
    return meta, start + meta_len


class DriverShipStore:
    """Driver-side publisher: object → segment token, once per object."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}  # guarded-by: _lock
        self._tokens: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # guarded-by: _lock
        #: Segments whose object died. Appended by finalizers, which may
        #: run on a thread already inside ``_lock``, so never under it.
        self._dead: deque[str] = deque()

    # -- publishing -----------------------------------------------------

    def token_for_object(self, obj: Any) -> str:
        """Publish a plain-picklable immutable object once, by identity."""
        return self._publish(obj, lambda: ({"kind": "object", "object": obj}, []))

    def token_for_snapshot(self, snap: PartitionSnapshot) -> str:
        """Publish a partition snapshot's batches + index manifest once.

        A partition hands out one snapshot object per version while
        anyone holds it, so repeated queries at one version reuse the
        published segment and an append's new version gets a fresh one.
        """
        return self._publish(snap, lambda: _snapshot_segment(snap))

    def _publish(self, obj: Any, build: Callable[[], tuple[dict, list[bytes]]]) -> str:
        with self._lock:
            self._reap_locked()
            token = self._tokens.get(obj)
            if token is not None:
                return token
            meta, data_parts = build()
            shm = _write_segment(meta, data_parts)
            self._segments[shm.name] = shm
            self._tokens[obj] = shm.name
            weakref.finalize(obj, self._dead.append, shm.name)
            return shm.name

    def live_segments(self) -> int:
        """Segments published and not yet unlinked."""
        with self._lock:
            self._reap_locked()
            return len(self._segments)

    def _reap_locked(self) -> None:  # requires-lock: _lock
        while self._dead:
            self._unlink_locked(self._dead.popleft())

    def _unlink_locked(self, name: str) -> None:  # requires-lock: _lock
        shm = self._segments.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except OSError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        with self._lock:
            for name in list(self._segments):
                self._unlink_locked(name)
            self._tokens.clear()


def _snapshot_segment(snap: PartitionSnapshot) -> tuple[dict, list[bytes]]:
    """Meta block and data parts of one partition snapshot's segment."""
    partition = snap.partition
    batch_count, last_len = snap.watermark
    manager = partition.batches
    # Used prefixes below the watermark: immutable once published
    # (sealed batches never change; the tail batch only grows past
    # last_len, which this snapshot never reads).
    lengths = [
        manager._lengths[i] if i < batch_count - 1 else last_len
        for i in range(batch_count)
    ]
    data_parts = [
        bytes(memoryview(manager.buffers[i])[: lengths[i]])
        for i in range(batch_count)
    ]
    meta = {
        "kind": "snapshot",
        "schema": partition.schema,
        "key_ordinal": partition.key_ordinal,
        "max_row_bytes": partition.codec.max_row_bytes,
        "layout": manager.layout,
        "batch_size": manager.batch_size,
        "lengths": lengths,
        "watermark": snap.watermark,
        "index": dict(snap.trie.to_dict()),
        "row_count": snap.row_count,
        "distinct_keys": snap.distinct_keys,
        "batch_zones": snap.batch_zones,
        "zone": snap.zone,
    }
    return meta, data_parts


class _SharedPartition:
    """Worker-side stand-in for :class:`IndexedPartition`: exactly the
    surface :class:`PartitionSnapshot` reads (codec + batches)."""

    __slots__ = ("schema", "key_ordinal", "codec", "batches")

    def __init__(self, schema, key_ordinal, codec, batches):
        self.schema = schema
        self.key_ordinal = key_ordinal
        self.codec = codec
        self.batches = batches


def _shared_batch_manager(meta: dict, shm, data_offset: int) -> BatchManager:
    """A read-only :class:`BatchManager` whose buffers are memoryviews
    into the mapped segment — the zero-copy path."""
    manager = BatchManager.__new__(BatchManager)
    manager.layout = meta["layout"]
    manager.batch_size = meta["batch_size"]
    manager.sanitize = False
    manager._seals = []
    buffers = []
    offset = data_offset
    for length in meta["lengths"]:
        buffers.append(shm.buf[offset : offset + length])
        offset += length
    manager._batches = buffers  # type: ignore[assignment]
    manager._lengths = list(meta["lengths"])
    return manager


class WorkerShipCache:
    """Worker-side attach-and-cache: token → rebuilt object."""

    def __init__(self) -> None:
        self._cache: dict[str, Any] = {}
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def load(self, token: str) -> Any:
        hit = self._cache.get(token)
        if hit is not None:
            return hit
        # The driver owns unlink. Python 3.11 registers segments with
        # the resource tracker even on attach, and a forked worker may
        # share the driver's tracker process — so unregister-after
        # would delete the *driver's* entry. Suppress the registration
        # instead (the 3.13 ``track=False`` semantics).
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *_a, **_k: None  # type: ignore[assignment]
        try:
            shm = shared_memory.SharedMemory(name=token)
        finally:
            resource_tracker.register = original_register  # type: ignore[assignment]
        meta, data_offset = _read_segment(shm)
        if meta["kind"] == "object":
            obj = meta["object"]
        else:
            codec = codec_for(meta["schema"], meta["max_row_bytes"])
            partition = _SharedPartition(
                meta["schema"],
                meta["key_ordinal"],
                codec,
                _shared_batch_manager(meta, shm, data_offset),
            )
            # A plain dict satisfies the trie surface snapshots read
            # (get / __contains__ / keys) — the manifest *is* the index.
            obj = PartitionSnapshot(
                partition,  # type: ignore[arg-type]
                meta["index"],  # type: ignore[arg-type]
                meta["watermark"],
                meta["row_count"],
                meta["distinct_keys"],
                meta["batch_zones"],
                meta["zone"],
            )
        if len(self._cache) >= _WORKER_CACHE_SEGMENTS:
            evict_token = next(iter(self._cache))
            self._evict(evict_token)
        self._cache[token] = obj
        self._segments[token] = shm
        return obj

    def _evict(self, token: str) -> None:
        self._cache.pop(token, None)
        shm = self._segments.pop(token, None)
        if shm is None:
            return
        try:
            shm.close()
        except OSError:  # pragma: no cover - already gone
            pass
        except BufferError:
            # Zero-copy views into this mapping are still alive (a
            # rebuilt snapshot referenced by shipped task state), so the
            # mapping cannot be torn down. Park it and silence the
            # object's __del__ — unmapping is left to process exit,
            # which is exactly what POSIX does with unlinked segments.
            shm.close = lambda: None  # type: ignore[method-assign]
            _ZOMBIES.append(shm)

    def close(self) -> None:
        for token in list(self._segments):
            self._evict(token)


__all__ = [
    "DriverShipStore",
    "WorkerShipCache",
    "PICKLE_PROTOCOL",
]
