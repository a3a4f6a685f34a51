"""Deterministic, seeded fault injection.

Chaos testing only pays off when a failing run can be replayed, so every
fault decision is a **pure keyed hash**:

* a site fires when ``keyed_uniform(seed, site, partition, attempt, n)``
  is below the site's probability, where ``n`` counts the earlier draws
  of the same ``(site, partition, attempt)`` in this injector. A key's
  fire sequence is independent of the draws at every other key, so
  enabling a second site, or adding or removing draws at other keys,
  leaves it unchanged (``max_fires_per_site`` aside: it caps a site
  across all its keys). Draws that share a key — every job's tasks on
  one split, concurrent calls of a site at ``-1`` — take their ``n`` in
  call order, so the thread interleaving decides which of them gets
  which ``n``;
* sites with no partition draw at ``partition=-1``; there ``n`` is the
  site's sequence, one draw per call;
* only attempt 0 fires: a retried dispatch (``attempt > 0``) always
  runs clean, so a gray-failure run always terminates;
* probabilities are configured per site through a frozen
  :class:`FaultProfile`, which travels inside
  :class:`~repro.config.Config` so a whole session (engine, shuffle,
  broker, durability, serving, cluster backend) shares one injector;
* ``max_fires_per_site`` turns a probabilistic profile into an exact
  one ("fail the first N times, then heal"), which most unit tests
  prefer over statistical assertions.

The injector never fires when constructed without a profile —
:data:`NULL_INJECTOR` is the shared no-op used throughout the engine so
hot paths pay a single attribute check, before any hashing, locking or
counting.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import InjectedFault, SimulatedCrash

#: Site → the :class:`FaultProfile` field holding its probability: the
#: one table behind :meth:`FaultProfile.probability`, its validation
#: and :data:`SITES`. Naming convention (documented in DESIGN.md §10):
#: ``<component>.<operation>`` with an optional ``.<mode>`` suffix for
#: distinct failure shapes of the same operation (``disk.write`` fails
#: cleanly, ``disk.write.torn`` dies mid-write). ``crash.*`` sites
#: simulate whole-process death (:class:`~repro.errors.SimulatedCrash`)
#: at a named point of the durability protocol rather than a
#: recoverable operation failure.
SITE_FIELDS = {
    "task": "task_crash_p",
    "task.slow": "task_slow_p",
    "shuffle.fetch": "shuffle_loss_p",
    "broker.read": "broker_read_p",
    "broker.commit": "broker_commit_p",
    "index.probe": "index_probe_p",
    # file-I/O faults (durability layer)
    "disk.write.torn": "disk_torn_write_p",
    "disk.read.short": "disk_short_read_p",
    "disk.fsync": "disk_fsync_p",
    # crash points of the WAL/checkpoint protocol
    "crash.pre_wal": "crash_pre_wal_p",
    "crash.post_wal": "crash_post_wal_p",
    "crash.mid_checkpoint": "crash_mid_checkpoint_p",
    "crash.post_checkpoint": "crash_post_checkpoint_p",
    # serving / resource-governance layer
    "serving.admit": "serving_admit_p",
    "serving.cancel": "serving_cancel_p",
    "serving.breaker_probe": "serving_breaker_probe_p",
    # cluster backend: a worker process dies (os._exit) mid-dispatch
    "cluster.worker_crash": "cluster_worker_crash_p",
    # cluster gray failures, drawn at dispatch keyed by (split, attempt):
    # hang freezes the worker whole (heartbeat-detected), delay stalls
    # it, drop swallows the reply while beats continue (rpc-deadline-
    # detected); heartbeat_miss discards one (slot, generation)'s beats
    # driver-side.
    "cluster.hang": "cluster_hang_p",
    "cluster.delay": "cluster_delay_p",
    "cluster.drop": "cluster_drop_p",
    "cluster.heartbeat_miss": "cluster_heartbeat_miss_p",
}

#: Injection sites recognised by the engine. Anything else is legal
#: (the injector is generic) but these are the ones wired in: every
#: drawn site, plus the circuit-breaker guard labels, which
#: serving.breaker(...) consults on every guarded call rather than
#: drawing as fault probabilities. The labels are registered so the FS
#: rules can cross-check every site literal in the tree against this
#: tuple — a typo'd guard label would otherwise silently split breaker
#: state.
SITES = (*SITE_FIELDS, "index.fallback", "wal.fsync", "cluster.rpc")

_HASH_DENOM = float(1 << 64)


def keyed_uniform(seed: int, site: str, partition: int, attempt: int, n: int) -> float:
    """The deterministic U[0,1) draw for one event.

    SHA-256 of the event key, reduced to 64 bits — stable across
    processes, platforms, and Python hash randomization.
    """
    digest = hashlib.sha256(
        f"{seed}:{site}:{partition}:{attempt}:{n}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / _HASH_DENOM


@dataclass(frozen=True)
class FaultProfile:
    """Per-site fault probabilities plus the seed that fixes the run.

    All probabilities default to zero, so a profile only injects what a
    test explicitly asks for.
    """

    #: Seed folded into every keyed draw. Two injectors built from the
    #: same profile make identical decisions for identical events.
    seed: int = 0
    #: P(task attempt crashes with an :class:`InjectedFault`).
    task_crash_p: float = 0.0
    #: P(task attempt is a straggler, sleeping ``slow_delay_s``).
    task_slow_p: float = 0.0
    #: Straggler duration in seconds: the sleep of a ``task.slow`` fire
    #: and the worker stall of a ``cluster.delay`` fire.
    slow_delay_s: float = 0.005
    #: P(a shuffle fetch loses one map output and fails).
    shuffle_loss_p: float = 0.0
    #: P(a broker read fails before returning records).
    broker_read_p: float = 0.0
    #: P(a consumer-offset commit fails on the broker).
    broker_commit_p: float = 0.0
    #: P(an index probe — cTrie lookup or indexed-join probe — fails).
    index_probe_p: float = 0.0
    #: P(a WAL write dies mid-record, leaving a torn tail on disk).
    disk_torn_write_p: float = 0.0
    #: P(a WAL/checkpoint read returns fewer bytes than are on disk).
    disk_short_read_p: float = 0.0
    #: P(an fsync fails — the bytes may or may not be durable).
    disk_fsync_p: float = 0.0
    #: P(process dies just *before* the WAL write of a batch).
    crash_pre_wal_p: float = 0.0
    #: P(process dies after the WAL write but *before* the in-memory
    #: apply — the window the WAL exists to close).
    crash_post_wal_p: float = 0.0
    #: P(process dies mid-checkpoint, before the atomic commit rename).
    crash_mid_checkpoint_p: float = 0.0
    #: P(process dies after checkpoint commit, before WAL cleanup).
    crash_post_checkpoint_p: float = 0.0
    #: P(admission sheds a query spuriously — converted by the
    #: controller into a :class:`~repro.errors.QueryRejectedError`).
    serving_admit_p: float = 0.0
    #: P(an admitted query is cancelled right after its slot grant).
    serving_cancel_p: float = 0.0
    #: P(a half-open circuit-breaker probe fails before running).
    serving_breaker_probe_p: float = 0.0
    #: P(a dispatched cluster task kills its worker process instead of
    #: running — exercises respawn + spill invalidation + lineage).
    cluster_worker_crash_p: float = 0.0
    #: P(a dispatched attempt's worker hangs whole — beats stop; the
    #: heartbeat monitor or ``Config.rpc_deadline`` must fence it).
    cluster_hang_p: float = 0.0
    #: P(a dispatched attempt stalls ``slow_delay_s`` before completing).
    cluster_delay_p: float = 0.0
    #: P(a dispatched attempt's reply is dropped while beats continue;
    #: only ``Config.rpc_deadline`` can catch it).
    cluster_drop_p: float = 0.0
    #: P(one spawned (slot, generation)'s beats are discarded driver-
    #: side; drawn once per spawn with ``generation - 1`` as attempt).
    cluster_heartbeat_miss_p: float = 0.0
    #: Cap on fires per site; ``None`` means unbounded. With a
    #: probability of 1.0 this gives "fail exactly N times" semantics.
    max_fires_per_site: int | None = None

    def __post_init__(self) -> None:
        for name in SITE_FIELDS.values():
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.slow_delay_s < 0:
            raise ValueError("slow_delay_s must be non-negative")
        if self.max_fires_per_site is not None and self.max_fires_per_site < 0:
            raise ValueError("max_fires_per_site must be non-negative (or None)")

    def probability(self, site: str) -> float:
        name = SITE_FIELDS.get(site)
        return 0.0 if name is None else getattr(self, name)


def chaos_profile(seed: int = 1337, max_fires_per_site: int | None = None) -> FaultProfile:
    """The standard chaos mix used by the acceptance suite and CI:
    task crashes at 0.2, shuffle-fetch loss at 0.1, broker delivery
    failures at 0.1 — all driven by one fixed seed."""
    return FaultProfile(
        seed=seed,
        task_crash_p=0.2,
        shuffle_loss_p=0.1,
        broker_read_p=0.1,
        broker_commit_p=0.1,
        max_fires_per_site=max_fires_per_site,
    )


def durability_chaos_profile(
    seed: int = 1337, max_fires_per_site: int | None = 1
) -> FaultProfile:
    """The crash-recovery chaos mix: every crash point of the WAL/
    checkpoint protocol armed at a moderate probability, plus torn
    writes, so one seeded run dies at an unpredictable-but-replayable
    point. Capped at one fire per site by default — after the first
    simulated death the test harness restarts from disk, and a second
    crash inside *recovery* is a different experiment."""
    return FaultProfile(
        seed=seed,
        disk_torn_write_p=0.15,
        crash_pre_wal_p=0.15,
        crash_post_wal_p=0.15,
        crash_mid_checkpoint_p=0.3,
        crash_post_checkpoint_p=0.3,
        max_fires_per_site=max_fires_per_site,
    )


def serving_chaos_profile(
    seed: int = 1337, max_fires_per_site: int | None = None
) -> FaultProfile:
    """The overload chaos mix for the serving layer: spurious admission
    sheds, post-grant cancellations, failed breaker probes, plus the
    engine faults (task crashes, shuffle loss, index-probe failures)
    that drive breakers through their trip → half-open → close cycle.
    Probabilities are moderate so a closed-loop run sees *every* error
    class — rejections, cancellations, fallbacks — without starving the
    success path the latency assertions need."""
    return FaultProfile(
        seed=seed,
        task_crash_p=0.05,
        shuffle_loss_p=0.05,
        index_probe_p=0.05,
        serving_admit_p=0.1,
        serving_cancel_p=0.1,
        serving_breaker_probe_p=0.3,
        max_fires_per_site=max_fires_per_site,
    )


def cluster_chaos_profile(
    seed: int = 1337, max_fires_per_site: int | None = 2
) -> FaultProfile:
    """The worker-kill chaos mix for the cluster backend: dispatched
    tasks occasionally poison their worker into ``os._exit``, forcing
    respawn, spill-output invalidation, and lineage recomputation.
    Capped per site by default so a seeded run makes progress instead
    of killing every attempt."""
    return FaultProfile(
        seed=seed,
        cluster_worker_crash_p=0.25,
        max_fires_per_site=max_fires_per_site,
    )


def gray_failure_schedule(seed: int = 1337) -> FaultProfile:
    """The standard gray-failure mix for the 20-seed acceptance sweep:
    hangs, delays, and dropped replies each moderate, plus occasional
    driver-side beat loss — every detector (heartbeat monitor, RPC
    deadline) gets exercised, while each seeded run stays convergent:
    only a split's first dispatch attempt may fire, so a retried
    dispatch always runs clean. A config running it needs
    ``rpc_deadline`` set (the only drop detector)."""
    return FaultProfile(
        seed=seed,
        cluster_hang_p=0.12,
        cluster_delay_p=0.2,
        cluster_drop_p=0.12,
        cluster_heartbeat_miss_p=0.1,
        slow_delay_s=0.03,
    )


class FaultInjector:
    """Seeded decision-maker consulted at every injection site.

    Thread-safe: the per-key draw counters, fire counts and the fired-
    event record are updated under one lock, and exposed through
    :meth:`stats` and :meth:`fired_events`.
    """

    def __init__(self, profile: FaultProfile | None = None):
        self.profile = profile
        self._lock = threading.Lock()
        #: Draws so far per (site, partition, attempt) — the ``n`` of
        #: the key's next draw.
        self._draws: dict[tuple[str, int, int], int] = {}  # guarded-by: _lock
        self._fired: dict[str, int] = {}  # guarded-by: _lock
        #: Fired draws as (site, partition, attempt, n), for replay
        #: comparison.
        self._events: list[tuple[str, int, int, int]] = []  # guarded-by: _lock

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.profile is not None

    def _next_draw(self, site: str, partition: int, attempt: int) -> int:  # requires-lock: _lock
        """Claim the key's next ordinal ``n``."""
        key = (site, partition, attempt)
        n = self._draws.get(key, 0)
        self._draws[key] = n + 1
        return n

    def should_fire(self, site: str, partition: int = -1, attempt: int = 0) -> bool:
        """Draw for one event; True when a fault should occur. A retry
        (``attempt > 0``) never fires."""
        profile = self.profile
        if profile is None:
            return False
        p = profile.probability(site)
        if p <= 0.0 or attempt:
            return False
        limit = profile.max_fires_per_site
        with self._lock:
            n = self._next_draw(site, partition, attempt)
            if limit is not None and self._fired.get(site, 0) >= limit:
                return False
            if keyed_uniform(profile.seed, site, partition, attempt, n) >= p:
                return False
            self._fired[site] = self._fired.get(site, 0) + 1
            self._events.append((site, partition, attempt, n))
            return True

    def fired_events(self) -> list[tuple[str, int, int, int]]:
        """Every fired draw so far as (site, partition, attempt, n),
        sorted: two runs that record in different thread orders still
        compare equal."""
        with self._lock:
            return sorted(self._events)

    def maybe_fail(self, site: str, partition: int = -1) -> None:
        """Raise :class:`InjectedFault` when the event's draw fires."""
        if self.should_fire(site, partition):
            raise InjectedFault(site)

    def maybe_crash(self, site: str, partition: int = -1) -> None:
        """Raise :class:`SimulatedCrash` when the event's draw fires.

        Unlike :meth:`maybe_fail`, the raised exception derives from
        ``BaseException``: no retry or supervision layer may absorb it.
        """
        if self.should_fire(site, partition):
            raise SimulatedCrash(site)

    def maybe_delay(self, site: str = "task.slow", partition: int = -1) -> None:
        """Sleep ``slow_delay_s`` when the straggler draw fires."""
        if self.should_fire(site, partition):
            assert self.profile is not None
            time.sleep(self.profile.slow_delay_s)

    def choose(self, site: str, options: Sequence[Any], partition: int = -1) -> Any:
        """Pick a victim (which map output to lose, where to tear a
        write) with a keyed draw of its own, separate from the fire
        draw, keeping the whole fault deterministic."""
        if not options:
            raise ValueError("no options to choose a fault victim from")
        profile = self.profile
        if profile is None:
            return options[0]
        label = f"{site}.choose"
        with self._lock:
            n = self._next_draw(label, partition, 0)
        u = keyed_uniform(profile.seed, label, partition, 0, n)
        return options[int(u * len(options))]

    def stats(self) -> dict[str, int]:
        """Fires per site so far (sites that never fired are absent)."""
        with self._lock:
            return dict(self._fired)

    def __repr__(self) -> str:
        state = "disabled" if self.profile is None else f"seed={self.profile.seed}"
        return f"FaultInjector({state})"


#: Shared no-op injector: ``should_fire`` is a two-branch fast path.
NULL_INJECTOR = FaultInjector(None)
