"""Heartbeat liveness: gray workers are detected, fenced, and respawned
without losing a row.

The unit half drives :class:`HeartbeatMonitor`'s sweep directly (no
monitor thread, no timing races); the end-to-end half injects
``cluster.hang`` directives and asserts the query still completes
bit-identically within the heartbeat budget.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.cluster.liveness import BEAT, DEAD, LIVE, SUSPECT, HeartbeatMonitor
from repro.engine.context import EngineContext
from repro.faults import FaultInjector, FaultSchedule
from tests.conftest import small_config

DATA = [(i % 20, i) for i in range(400)]
EXPECTED = {}
for key, value in DATA:
    EXPECTED[key] = EXPECTED.get(key, 0) + value


class _FakeConn:
    """Beat-pipe stand-in: a drainable list of pre-packed frames."""

    def __init__(self):
        self.frames: list[bytes] = []

    def beat(self, generation: int) -> None:
        self.frames.append(BEAT.pack(generation, time.monotonic()))

    def poll(self, _timeout: float = 0.0) -> bool:
        return bool(self.frames)

    def recv_bytes(self) -> bytes:
        return self.frames.pop(0)


def _monitor(timeout: float = 1.0, injector=None):
    dead: list[tuple[int, int, int]] = []
    monitor = HeartbeatMonitor(
        interval=timeout / 10,
        timeout=timeout,
        on_dead=lambda slot, gen, pid: dead.append((slot, gen, pid)),
        injector=injector,
    )
    return monitor, dead


class TestMonitorUnit:
    def test_beating_slot_stays_live(self):
        monitor, _ = _monitor()
        conn = _FakeConn()
        monitor.register(0, 1, conn, pid=999999)
        conn.beat(1)
        assert monitor._sweep() == []
        assert monitor._slots[0].state == LIVE
        assert monitor.suspect_slots() == frozenset()

    def test_silence_walks_suspect_then_dead(self):
        monitor, _ = _monitor(timeout=1.0)
        conn = _FakeConn()
        monitor.register(0, 1, conn, pid=999999)
        monitor._slots[0].last_beat -= 0.6  # past timeout/2, short of timeout
        assert monitor._sweep() == []
        assert monitor._slots[0].state == SUSPECT
        assert monitor.suspect_slots() == frozenset({0})
        monitor._slots[0].last_beat -= 0.5  # now past the full timeout
        assert monitor._sweep() == [(0, 1, 999999)]
        assert monitor._slots[0].state == DEAD
        assert monitor.stats()["heartbeat_fences"] == 1
        # Already DEAD: no second verdict for the same generation.
        assert monitor._sweep() == []

    def test_fresh_beat_recovers_suspect(self):
        monitor, _ = _monitor(timeout=1.0)
        conn = _FakeConn()
        monitor.register(0, 1, conn, pid=999999)
        monitor._slots[0].last_beat -= 0.6
        monitor._sweep()
        assert monitor._slots[0].state == SUSPECT
        conn.beat(1)
        monitor._sweep()
        assert monitor._slots[0].state == LIVE

    def test_stale_generation_beats_discarded(self):
        """A zombie generation's beats must not refresh the new one."""
        monitor, _ = _monitor(timeout=1.0)
        conn = _FakeConn()
        monitor.register(0, 2, conn, pid=999999)
        monitor._slots[0].last_beat -= 1.1
        conn.beat(1)  # generation 1 zombie still beating
        assert monitor._sweep() == [(0, 2, 999999)]
        assert monitor.stats()["beats_discarded"] == 1

    def test_respawn_rebinds_generation(self):
        monitor, _ = _monitor(timeout=1.0)
        monitor.register(0, 1, _FakeConn(), pid=111)
        monitor._slots[0].last_beat -= 1.1
        monitor._sweep()
        assert monitor._slots[0].state == DEAD
        fresh = _FakeConn()
        monitor.register(0, 2, fresh, pid=222)
        assert monitor._slots[0].state == LIVE
        fresh.beat(2)
        assert monitor._sweep() == []

    def test_injected_heartbeat_miss_deafens_registration(self):
        injector = FaultInjector(None, FaultSchedule(seed=5, heartbeat_miss_p=1.0))
        monitor, _ = _monitor(timeout=1.0, injector=injector)
        conn = _FakeConn()
        monitor.register(0, 1, conn, pid=999999)
        assert monitor._slots[0].deaf
        conn.beat(1)
        monitor._slots[0].last_beat -= 1.1
        # The worker is perfectly healthy; the fence is the experiment.
        assert monitor._sweep() == [(0, 1, 999999)]
        assert monitor.stats()["beats_discarded"] == 1
        # The respawned generation is spawn-attempt 1: past the default
        # attempt_cap, so it hears beats again — no fencing livelock.
        monitor.register(0, 2, conn, pid=999999)
        assert not monitor._slots[0].deaf


def _hang_config(seed: int = 1):
    config = small_config(
        executors=2,
        default_parallelism=4,
        shuffle_partitions=4,
        heartbeat_interval=0.02,
        heartbeat_timeout=0.35,
    )
    return dataclasses.replace(
        config,
        fault_schedule=FaultSchedule(seed=seed, hang_p=1.0, attempt_cap=1),
    )


class TestHangEndToEnd:
    def test_hung_workers_fenced_and_query_completes(self):
        """Every split's first dispatch hangs its worker whole (beats
        paused). The monitor must fence each hang within
        ``heartbeat_timeout`` and the retried attempts must produce the
        exact multiset — detection, respawn, and lineage recompute with
        zero lost or duplicated rows."""
        started = time.monotonic()
        with EngineContext(_hang_config()) as ctx:
            result = dict(
                ctx.parallelize(DATA, 4)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            elapsed = time.monotonic() - started
            stats = ctx.backend.stats()
            metrics = ctx.scheduler.metrics.snapshot()
        assert result == EXPECTED
        assert stats["hangs_injected"] > 0, "schedule never fired"
        assert stats["heartbeat_fences"] >= stats["hangs_injected"]
        # Fenced deaths surface as ClusterTimeoutError (transient), and
        # each fence's retry made progress.
        assert metrics["cluster_timeouts"] > 0
        # Liveness budget: each hang is detected within heartbeat_timeout
        # plus scheduling slack; the whole job (two serial waves of
        # hangs, at most) stays well under the no-detection sleep bound.
        config = _hang_config()
        budget = config.heartbeat_timeout * (stats["hangs_injected"] + 2) + 5.0
        assert elapsed < budget, f"detection too slow: {elapsed:.1f}s"

    def test_rpc_deadline_alone_catches_a_hang(self):
        """Heartbeats off: the per-RPC deadline is the only detector, and
        it must still fence every hang and return the exact multiset."""
        config = dataclasses.replace(
            _hang_config(), heartbeat_interval=0.0, rpc_deadline=0.5
        )
        with EngineContext(config) as ctx:
            result = dict(
                ctx.parallelize(DATA, 4)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            stats = ctx.backend.stats()
        assert result == EXPECTED
        assert stats["hangs_injected"] > 0, "schedule never fired"
        assert stats["rpc_timeouts"] >= stats["hangs_injected"]
        assert stats["heartbeat_fences"] == 0

    def test_generation_bumps_per_fence(self):
        with EngineContext(_hang_config()) as ctx:
            ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b).collect()
            stats = ctx.backend.stats()
        # Every fence killed a generation and respawned the slot.
        assert stats["generations"] >= stats["workers"] + stats["heartbeat_fences"]

    def test_heartbeats_disabled_keeps_plain_path(self):
        """heartbeat_interval=0 must run the classic backend: no monitor,
        no fences, results identical."""
        config = small_config(
            executors=2,
            default_parallelism=4,
            shuffle_partitions=4,
            heartbeat_interval=0.0,
        )
        with EngineContext(config) as ctx:
            result = dict(
                ctx.parallelize(DATA, 4)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            stats = ctx.backend.stats()
        assert result == EXPECTED
        assert stats["heartbeat_fences"] == 0
        assert "suspect_slots" not in stats


@pytest.mark.parametrize("reason", ["heartbeat", "rpc-deadline"])
def test_cluster_timeout_error_is_transient(reason):
    from repro.engine.scheduler import _find_transient
    from repro.errors import ClusterTimeoutError, TaskError

    exc = TaskError(0, 1, ClusterTimeoutError(0, 3, reason))
    found = _find_transient(exc)
    assert isinstance(found, ClusterTimeoutError)
    assert found.generation == 3
