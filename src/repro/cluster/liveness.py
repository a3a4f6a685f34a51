# lint: allow[CP002] -- liveness is query-agnostic daemon machinery: the monitor outlives every query and must keep sweeping while one is cancelled
"""Cluster liveness: worker heartbeats and the driver-side monitor.

PR 7's cluster backend only detects *clean* worker death — EOF on the
task pipe. A hung, slow, or partially-responsive worker (the gray
failure) pins the dispatcher in ``recv`` forever. This module closes
that gap with Spark's heartbeat design:

* every worker runs a daemon **beat thread** that writes one small
  frame — ``(generation, monotonic timestamp)`` — onto a dedicated
  beat pipe every ``Config.heartbeat_interval`` seconds. The beat
  channel is separate from the task pipe on purpose: a worker stuck
  in task compute still beats (it is *slow*, not *dead*), while a
  worker frozen whole (an injected ``cluster.hang``, a SIGSTOP, a
  pathological page fault storm) stops beating;

* the driver runs one **monitor thread** for all slots. Per slot it
  tracks the last beat instant and walks a three-state ladder:
  ``LIVE`` → ``SUSPECT`` (no beat for half the timeout — the
  scheduler's speculation hook may launch a backup attempt on a
  healthy slot) → ``DEAD`` (no beat for ``Config.heartbeat_timeout``).

* a ``DEAD`` verdict *fences* the slot: the monitor records the fence
  reason for the slot's current generation and SIGKILLs the process.
  It deliberately does **not** respawn — the kill surfaces as EOF on
  the task pipe, so the dispatcher's single existing death path
  (respawn, invalidate the pid's map outputs, fail the in-flight
  attempt) handles heartbeat death exactly like organic death, with
  one difference: the recorded fence reason upgrades the attempt's
  failure to :class:`~repro.errors.ClusterTimeoutError`. One death
  path means no monitor/dispatcher respawn race.

Determinism hook: an armed ``cluster.heartbeat_miss`` site is drawn
**once per (slot, generation) at registration** (the slot is the
partition key, ``generation - 1`` the attempt), entirely driver-side —
the monitor simply discards that generation's beats, so a perfectly
healthy worker gets fenced and the chaos suite proves fencing never
loses or duplicates rows.
"""

from __future__ import annotations

import os
import signal
import struct
import threading
import time
from typing import Callable

from repro.faults import NULL_INJECTOR, FaultInjector

#: One beat frame: (generation, time.monotonic() at send).
BEAT = struct.Struct("<Id")

#: Liveness states (per slot, monitor-owned).
LIVE = "live"
SUSPECT = "suspect"
DEAD = "dead"


def beat_loop(conn, generation: int, interval: float, pause, stop) -> None:
    """Worker-side beat thread body.

    ``pause`` (a :class:`threading.Event`) models whole-worker hangs:
    while set, no beats are sent — the injected ``cluster.hang``
    directive sets it so the monitor sees real silence. ``stop`` ends
    the loop at worker shutdown.
    """
    payload = BEAT.pack(generation, 0.0)
    while not stop.wait(interval):  # lint: allow[CP001] -- worker-side daemon; dies with the process
        if pause.is_set():
            continue
        payload = BEAT.pack(generation, time.monotonic())
        try:
            conn.send_bytes(payload)
        except (BrokenPipeError, OSError):
            return


class _SlotHealth:
    """Monitor-side record for one worker slot."""

    __slots__ = ("slot_id", "generation", "conn", "pid", "last_beat", "state", "deaf")

    def __init__(self, slot_id: int, generation: int, conn, pid: int, now: float):
        self.slot_id = slot_id
        self.generation = generation
        self.conn = conn
        self.pid = pid
        self.last_beat = now
        self.state = LIVE
        #: True when an injected heartbeat_miss discards this
        #: generation's beats (the worker is healthy; the fence is the
        #: experiment).
        self.deaf = False


class HeartbeatMonitor:
    """One driver thread watching every worker slot's beat channel."""

    def __init__(
        self,
        interval: float,
        timeout: float,
        on_dead: Callable[[int, int, int], None],
        injector: FaultInjector | None = None,
    ) -> None:
        self._interval = interval
        self._timeout = timeout
        self._suspect_after = timeout / 2.0
        #: Called as ``on_dead(slot_id, generation, pid)`` exactly once
        #: per fenced generation, from the monitor thread.
        self._on_dead = on_dead
        self._injector = injector or NULL_INJECTOR
        self._lock = threading.Lock()
        self._slots: dict[int, _SlotHealth] = {}  # guarded-by: _lock
        self._fences = 0  # guarded-by: _lock
        self._beats_discarded = 0  # guarded-by: _lock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- registration (backend-facing) ---------------------------------

    def register(self, slot_id: int, generation: int, conn, pid: int) -> None:
        """(Re)bind a slot to a freshly spawned generation. The spawn
        instant counts as a beat, so a worker gets a full timeout to
        say its first word."""
        health = _SlotHealth(slot_id, generation, conn, pid, time.monotonic())
        # Generations start at 1, so generation - 1 is the spawn attempt
        # ordinal: only attempt 0 fires, so only a slot's first
        # generation can be deafened, and the respawn beats clean —
        # fencing a healthy worker never livelocks.
        health.deaf = self._injector.should_fire(
            "cluster.heartbeat_miss", slot_id, max(generation - 1, 0)
        )
        with self._lock:
            self._slots[slot_id] = health

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._monitor_loop, name="repro-heartbeat-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self._timeout + 1.0)
            self._thread = None

    # -- queries --------------------------------------------------------

    def suspect_slots(self) -> frozenset[int]:
        """Slots currently SUSPECT or DEAD (speculation input)."""
        with self._lock:
            return frozenset(
                h.slot_id for h in self._slots.values() if h.state != LIVE
            )

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "heartbeat_fences": self._fences,
                "beats_discarded": self._beats_discarded,
                "suspect_slots": sum(
                    1 for h in self._slots.values() if h.state == SUSPECT
                ),
            }

    # -- the monitor thread --------------------------------------------

    def _monitor_loop(self) -> None:
        # Poll tick: fast enough that detection latency is dominated by
        # the timeout itself, never by the monitor's sleep.
        tick = max(self._interval / 2.0, 0.005)
        while not self._stop.wait(tick):  # lint: allow[CP001] -- driver-side daemon outliving any one query; bounded tick
            doomed = self._sweep()
            for slot_id, generation, pid in doomed:
                self._kill(pid)
                self._on_dead(slot_id, generation, pid)

    def _sweep(self) -> list[tuple[int, int, int]]:
        """Drain beat pipes, advance states; returns newly-DEAD slots."""
        now = time.monotonic()
        doomed: list[tuple[int, int, int]] = []
        with self._lock:
            for health in self._slots.values():
                self._drain_locked(health)
                if health.state == DEAD:
                    continue
                silent = now - health.last_beat
                if silent >= self._timeout:
                    health.state = DEAD
                    self._fences += 1
                    doomed.append(
                        (health.slot_id, health.generation, health.pid)
                    )
                elif silent >= self._suspect_after:
                    health.state = SUSPECT
                else:
                    health.state = LIVE
        return doomed

    def _drain_locked(self, health: _SlotHealth) -> None:  # requires-lock: _lock
        try:
            while health.conn.poll(0):  # lint: allow[CP001] -- nonblocking drain of buffered beat frames, bounded by the pipe buffer
                raw = health.conn.recv_bytes()
                generation, _sent = BEAT.unpack(raw)
                if health.deaf or generation != health.generation:
                    # Injected beat loss, or a zombie generation's late
                    # beat: either way it must not refresh liveness.
                    self._beats_discarded += 1
                    continue
                health.last_beat = time.monotonic()
        except (EOFError, OSError, struct.error):
            # Beat pipe died: the task pipe's EOF path owns the slot's
            # fate; silence here simply lets the timeout run out.
            pass

    @staticmethod
    def _kill(pid: int) -> None:
        """SIGKILL the fenced process: not trusted to honor anything
        gentler (it is, by verdict, unresponsive), and the kill is what
        converts gray failure into the clean-EOF path the dispatcher
        already handles."""
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


__all__ = ["BEAT", "DEAD", "LIVE", "SUSPECT", "HeartbeatMonitor", "beat_loop"]
