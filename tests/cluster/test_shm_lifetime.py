"""Shared-memory segments live exactly as long as the objects they ship.

The driver publishes each partition snapshot, relation and broadcast
once per object. A segment is unlinked after its object dies (at the
next publish, or when ``backend.stats()`` counts the live ones), so
queries alternating between two held versions reuse one segment per
partition per version, repeated broadcast joins leave the count flat,
and dropping a version handle reclaims its segments.
"""

from __future__ import annotations

import gc
import glob
import os
import sys
import threading

import pytest

from repro.cluster import shm
from repro.engine.broadcast import Broadcast
from repro.core import create_index, enable_indexing
from repro.sql.functions import col
from repro.sql.session import Session
from tests.conftest import small_config

PARTITIONS = 4
SCHEMA = [("id", "long"), ("name", "string")]


def make_rows(start: int, n: int) -> list[tuple]:
    return [(key, f"n{key % 7}") for key in range(start, start + n)]


@pytest.fixture()
def session():
    s = Session(
        small_config(
            executors=2,
            default_parallelism=PARTITIONS,
            shuffle_partitions=PARTITIONS,
        )
    )
    enable_indexing(s)
    yield s
    s.stop()
    assert glob.glob(f"/dev/shm/repro_{os.getpid()}_*") == []


def _live(session: Session) -> int:
    return session.ctx.backend.stats()["shm_segments"]


def test_alternating_versions_ship_each_snapshot_once(session, monkeypatch):
    written: list[str] = []
    write_segment = shm._write_segment

    def counting(meta, data_parts):
        written.append(meta["kind"])
        return write_segment(meta, data_parts)

    monkeypatch.setattr(shm, "_write_segment", counting)
    older = create_index(
        session.create_dataframe(make_rows(0, 200), SCHEMA), "id"
    )
    latest = older.append_rows(make_rows(1000, 200))
    for i in range(10):
        handle = (older, latest)[i % 2]
        assert handle.to_df().filter(col("id") < 50).count() == 50
    assert 0 < written.count("snapshot") <= 2 * PARTITIONS


def test_broadcast_joins_leave_the_segment_count_flat(session):
    session.create_dataframe(make_rows(0, 200), SCHEMA).create_or_replace_temp_view(
        "t"
    )
    session.create_dataframe(
        [(i, f"g{i}") for i in range(7)], [("bid", "long"), ("label", "string")]
    ).create_or_replace_temp_view("labels")
    query = "SELECT t.id, labels.label FROM t JOIN labels ON t.id % 7 = labels.bid"
    assert "BroadcastHashJoin" in session.sql(query).explain()
    counts = []
    for _ in range(12):
        assert len(session.sql(query).collect_tuples()) == 200
        gc.collect()
        counts.append(_live(session))
    assert counts == [counts[0]] * len(counts)


def test_dropping_a_handle_reclaims_its_segments(session):
    older = create_index(
        session.create_dataframe(make_rows(0, 200), SCHEMA), "id"
    )
    latest = older.append_rows(make_rows(1000, 200))
    for handle in (older, latest):
        assert handle.to_df().filter(col("id") < 50).count() == 50
    both = _live(session)
    del older, handle
    gc.collect()
    assert latest.to_df().filter(col("id") < 50).count() == 50
    assert _live(session) <= both - PARTITIONS


def test_concurrent_publishers_reclaim_every_dead_object():
    """Four threads publish objects that die in collections, on
    whichever thread runs them; every segment is reclaimed."""
    store = shm.DriverShipStore()

    def publish(worker: int) -> None:
        for i in range(100):
            shipped = Broadcast([worker, i])
            shipped.cycle = shipped  # dies in a collection, on any thread
            store.token_for_object(shipped)
            del shipped
            if i % 10 == 0:
                gc.collect()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=publish, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    gc.collect()
    try:
        assert store.live_segments() == 0
    finally:
        store.close()


class _ReleasesOnPickle:
    """Pickling it drops the last reference to another shipped object."""

    def __init__(self, holder: list) -> None:
        self.holder = holder

    def __reduce__(self):
        self.holder.clear()
        return (list, ())


def test_an_object_dying_under_the_store_lock_is_queued_not_deadlocked():
    store = shm.DriverShipStore()
    holder = [Broadcast("victim")]
    store.token_for_object(holder[0])
    releaser = _ReleasesOnPickle(holder)
    # The victim's finalizer runs on this thread, inside the publish.
    publish = threading.Thread(
        target=store.token_for_object, args=(releaser,), daemon=True
    )
    publish.start()
    publish.join(timeout=10)
    # A deadlocked publish holds the lock, so close() could not run.
    assert not publish.is_alive(), "a finalizer waited for the store's lock"
    try:
        assert holder == []
        assert store.live_segments() == 1
    finally:
        store.close()
