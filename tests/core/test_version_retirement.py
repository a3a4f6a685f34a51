"""A superseded version dies by reference counting, not by the collector.

Nothing a :class:`~repro.core.mvcc.Version` reaches points back at a
handle, and no cache pins one, so replacing the last handle frees the
version — and the trie generation only it could read — on the spot.
The tests run with the cyclic collector *off*: whatever is still alive
afterwards was kept alive by a reference, and a cycle would show up as
an object the final ``gc.collect()`` had to find.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import create_index, enable_indexing
from repro.core.mvcc import Version
from repro.ctrie.nodes import CNode, INode
from repro.sql.functions import col
from repro.sql.session import Session
from tests.durability.conftest import durable_config

SCHEMA = [("id", "long"), ("grp", "long"), ("name", "string")]
CYCLES = 200


def rows_for(cycle: int) -> list[tuple]:
    """Three rows per cycle: two new keys and one more row for key 0."""
    base = 1000 + cycle * 2
    return [(base, cycle % 7, f"n{base}"), (base + 1, cycle % 7, f"n{base + 1}"),
            (0, cycle % 7, f"zero{cycle}")]


@pytest.fixture()
def durable_session(tmp_path):
    session = Session(durable_config(tmp_path / "state"))
    enable_indexing(session)
    yield session
    session.stop()


@pytest.fixture()
def collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def cycle_garbage() -> list[object]:
    """Objects of the MVCC types that only the cyclic collector could free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = [o for o in gc.garbage if isinstance(o, (Version, INode, CNode))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


def test_dropped_versions_die_without_the_collector(durable_session, collector_off):
    s = durable_session
    seed = [(i, i % 7, f"n{i}") for i in range(300)]
    handle = create_index(s.create_dataframe(seed, SCHEMA), "id", durable_name="t")
    assert handle.num_partitions == 4
    probe = s.create_dataframe([(k,) for k in (0, 5, 1001, 1399)], [("pid", "long")])
    expected = list(seed)
    first = handle  # kept for the whole test: MVCC isolation below
    first_version = weakref.ref(first.version)
    dropped: list[weakref.ref] = []

    for cycle in range(CYCLES):
        batch = rows_for(cycle)
        old_version = weakref.ref(handle.version)
        handle = handle.append_rows(batch)
        expected += batch
        if old_version() is not first.version:
            dropped.append(old_version)
            assert old_version() is None, f"cycle {cycle}: superseded version alive"

        # Cached-plan reads at the new version: point lookup, top-k, indexed join.
        key = batch[0][0]
        assert handle.get_rows(key).collect_tuples() == [batch[0]]
        top = handle.to_df().order_by(col("id").desc()).limit(3).collect_tuples()
        assert [r[0] for r in top] == sorted((r[0] for r in expected), reverse=True)[:3]
        joined = handle.join(probe, on=handle.col("id") == probe.col("pid")).collect_tuples()
        want = sorted(r + (r[0],) for r in expected if r[0] in (0, 5, 1001, 1399))
        assert sorted(joined) == want

    metrics = s.ctx.scheduler.metrics.snapshot()
    assert metrics["plan_cache_hits"] >= 3 * (CYCLES - 1)  # the reads were cached-plan reads
    assert len(dropped) == CYCLES - 1 and all(ref() is None for ref in dropped)
    store_id = handle.version.store_id
    live = {id(o) for o in gc.get_objects() if type(o) is Version and o.store_id == store_id}
    assert live == {id(first.version), id(handle.version)}

    # The first handle still reads its own snapshot: neither rebound to
    # a newer version by a template hit nor answered from a newer plan.
    assert first.count() == len(seed)
    assert first.get_rows(1000).collect_tuples() == []
    assert first.get_rows(0).collect_tuples() == [seed[0]]
    assert len(first.to_df().collect_tuples()) == len(seed)
    assert handle.get_rows(1000).collect_tuples() == [rows_for(0)[0]]
    assert len(handle.get_rows(0).collect_tuples()) == CYCLES + 1
    del first
    assert first_version() is None

    assert cycle_garbage() == []
