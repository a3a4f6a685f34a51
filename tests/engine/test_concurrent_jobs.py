"""Concurrent jobs on one engine context.

Jobs keep their state (lineage, registered shuffles, dispatch counts)
on themselves, so two threads' jobs run side by side: a short job does
not wait behind a long one, and jobs sharing one shuffled RDD commit
each map output once and read one partition numbering. Threads meet on
``threading`` events and barriers, never on sleeps.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

from repro.core import create_index
from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner
from repro.sql import functions as F
from tests.conftest import small_config

#: Bound on every wait, so a regression fails instead of hanging.
WAIT_S = 30.0


def _add(a, b):
    return a + b


def _run(target, *args) -> tuple[threading.Thread, list]:
    """Start ``target(*args)`` on a thread; its result lands in the list."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(target(*args)))
    thread.start()
    return thread, out


def test_short_collect_completes_while_another_job_is_parked(ctx):
    parked, release = threading.Event(), threading.Event()

    def park(x):
        if x == 0:
            parked.set()
            release.wait(WAIT_S)
        return x

    long_job, long_out = _run(ctx.parallelize(range(4), 2).map(park).collect)
    try:
        assert parked.wait(WAIT_S)
        short_job, short_out = _run(
            ctx.parallelize(range(6), 3).map(lambda x: x * 2).collect
        )
        short_job.join(5.0)
        # The short job finished while the long one is still parked
        # inside its first task.
        assert short_out == [[0, 2, 4, 6, 8, 10]]
        assert long_job.is_alive()
    finally:
        release.set()
        long_job.join(WAIT_S)
    assert long_out == [[0, 1, 2, 3]]


#: Keys that land in reduce buckets 0 and 2 of 4 only, so coalescing
#: with a target of one full bucket merges the buckets into two groups.
_KEYS = [k for k in range(64) if HashPartitioner(4).partition(k) in (0, 2)][:8]
_PAIRS = [(_KEYS[i % len(_KEYS)], i) for i in range(200)]


def _shuffled(ctx, gate=None):
    def pass_through(kv):
        if gate is not None and kv == _PAIRS[0]:
            gate()
        return kv

    return ctx.parallelize(_PAIRS, 4).map(pass_through).reduce_by_key(_add)


def test_two_collects_and_a_take_share_one_coalescable_shuffle():
    # The sequential run, uncoalesced: its bucket sizes size the target.
    reference = EngineContext(small_config(target_reduce_bytes=1))
    try:
        rdd = _shuffled(reference)
        expected_collect = rdd.collect()
        expected_take = rdd.take(len(_KEYS) + 1)
        sizes = reference.shuffle_manager.reduce_sizes(rdd.shuffle_dep.shuffle_id)
    finally:
        reference.stop()
    target = max(est for _rows, est in sizes)
    ctx = EngineContext(small_config(target_reduce_bytes=target))
    try:
        manager = ctx.shuffle_manager
        dropped: list = []
        discard = manager.discard

        def record(outputs):
            outputs = list(outputs)
            dropped.extend(outputs)
            discard(outputs)

        manager.discard = record
        # Every job parks in map task 0 until all three run the map
        # stage, so each computes all four map outputs. The take then
        # waits for a collect to finish: a collect's commit completes
        # the shuffle and coalesces it after the take chose its first
        # partition against the planned count.
        meet, collected, late = threading.Barrier(3), threading.Event(), threading.local()

        def gate():
            meet.wait(WAIT_S)
            if getattr(late, "take", False):
                collected.wait(WAIT_S)

        def collect():
            try:
                return rdd.collect()
            finally:
                collected.set()

        def take():
            late.take = True
            return rdd.take(len(_KEYS) + 1)

        rdd = _shuffled(ctx, gate)
        jobs = [_run(collect), _run(collect), _run(take)]
        for thread, _out in jobs:
            thread.join(WAIT_S)
            assert not thread.is_alive()
        assert [out for _t, out in jobs] == [
            [expected_collect],
            [expected_collect],
            [expected_take],
        ]
        assert rdd.num_partitions == 2
        assert ctx.scheduler.metrics.coalesced_shuffles == 1
        with manager._lock:
            state = manager._shuffles[rdd.shuffle_dep.shuffle_id]
            kept = sorted(state.outputs)
        assert kept == [0, 1, 2, 3]
        assert Counter(o.map_index for o in dropped) == {0: 2, 1: 2, 2: 2, 3: 2}
        assert rdd.collect() == expected_collect
    finally:
        ctx.stop()


def test_concurrent_aggregations_over_sealed_batches(indexed_session):
    # More clients than cores and a short switch interval, so the jobs'
    # stages interleave finely; a lost map output or a mixed-up
    # partition numbering would change a sum.
    session = indexed_session
    rows = [(i, f"c{i % 5}", i % 7) for i in range(300)]
    df = session.create_dataframe(
        rows, [("id", "long"), ("city", "string"), ("v", "long")], num_partitions=4
    )
    indexed = create_index(df, "id").to_df()
    expected: dict[str, int] = {}
    for _id, city, v in rows:
        expected[city] = expected.get(city, 0) + v
    start = threading.Barrier(4)

    def client() -> list[dict[str, int]]:
        start.wait(WAIT_S)
        return [
            {
                row[0]: row[1]
                for row in indexed.group_by("city").agg(F.sum_("v")).collect_tuples()
            }
            for _ in range(10)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [_run(client) for _ in range(4)]
        for thread, _out in clients:
            thread.join(WAIT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for _thread, out in clients:
        assert out == [[expected] * 10]
    manager = session.ctx.shuffle_manager
    with manager._lock:
        assert all(state.complete() for state in manager._shuffles.values())
