"""Gray-failure acceptance sweep: deterministic hang/delay/drop
draws across 20 seeds.

Three properties per seed, all implied by exact-multiset results plus
the resource checks:

* **zero stale rows** — a fenced generation's late map outputs or
  zombie replies never reach a reduce (a stale row would skew an
  aggregate, and the expected dict is exact);
* **zero leaked shm segments** — every kill path reaps its
  ``/dev/shm/repro_{pid}_*`` segments and spill files;
* **deterministic replay** — the same seed fires the same events
  (``fired_events()`` equality) and produces the same result, run to
  run.
"""

from __future__ import annotations

import dataclasses
import glob
import os

import pytest

from repro.cluster import process_backend
from repro.engine.context import EngineContext
from repro.faults import FaultProfile, cluster_chaos_profile, gray_failure_schedule
from tests.conftest import small_config

SEEDS = list(range(20))

#: 600 rows over 40 keys; value multiset per key is exact, so one stale
#: or lost map output shows up as a wrong aggregate, not just a count.
DATA = [(i % 40, i) for i in range(600)]
EXPECTED = {}
for key, value in DATA:
    EXPECTED[key] = EXPECTED.get(key, 0) + value


def _schedule_config(seed: int, schedule: FaultProfile | None = None):
    config = small_config(
        executors=2,
        default_parallelism=4,
        shuffle_partitions=4,
        heartbeat_interval=0.02,
        heartbeat_timeout=0.4,
        rpc_deadline=1.5,
    )
    return dataclasses.replace(
        config,
        faults=schedule
        or FaultProfile(
            seed=seed,
            cluster_hang_p=0.1,
            cluster_delay_p=0.2,
            cluster_drop_p=0.15,
            cluster_heartbeat_miss_p=0.05,
            slow_delay_s=0.02,
        ),
    )


def _shm_segments() -> list[str]:
    """Shared-memory segments owned by *this* driver process."""
    return glob.glob(f"/dev/shm/repro_{os.getpid()}_*")


def _run(config) -> tuple[dict, dict, list]:
    with EngineContext(config, process_backend) as ctx:
        result = dict(
            ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b).collect()
        )
        stats = ctx.backend.stats()
        trace = ctx.fault_injector.fired_events()
    return result, stats, trace


@pytest.mark.parametrize("seed", SEEDS)
def test_schedule_sweep_exact_results(seed):
    result, stats, _trace = _run(_schedule_config(seed))
    assert result == EXPECTED, f"seed {seed}: rows lost, duplicated, or stale"
    # A fenced generation's outputs must never have been consumed: any
    # stale commit is explicitly counted, and a consumed one would have
    # broken the multiset above.
    assert stats["stale_replies_dropped"] >= 0  # counter exists and is sane
    assert _shm_segments() == [], f"seed {seed}: leaked shm segments"


def test_chaos_actually_fires():
    """The sweep's probabilities must exercise every detector at least
    once across the first seeds (otherwise the suite tests nothing)."""
    totals = {"hangs_injected": 0, "drops_injected": 0, "delays_injected": 0}
    fences = 0
    for seed in SEEDS[:8]:
        _result, stats, _trace = _run(_schedule_config(seed))
        for key in totals:
            totals[key] += stats[key]
        fences += stats["heartbeat_fences"] + stats["rpc_timeouts"]
    assert all(count > 0 for count in totals.values()), totals
    assert fences > 0, "no gray failure was ever detected and fenced"


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_deterministic_replay(seed):
    """Same seed → same schedule → same result, bit for bit."""
    first = _run(_schedule_config(seed))
    second = _run(_schedule_config(seed))
    assert first[2] == second[2], f"seed {seed}: schedules diverged"
    assert first[0] == second[0] == EXPECTED
    assert first[2], f"seed {seed}: empty trace — replay test is vacuous"


def test_different_seeds_draw_different_schedules():
    traces = {tuple(_run(_schedule_config(seed))[2]) for seed in (1, 2, 3)}
    assert len(traces) > 1, "every seed drew the identical schedule"


def test_gray_failure_preset_end_to_end():
    """The documented acceptance preset must pass as-is."""
    result, _stats, trace = _run(_schedule_config(0, gray_failure_schedule(seed=42)))
    assert result == EXPECTED
    assert trace, "preset fired nothing"
    assert _shm_segments() == []


@pytest.mark.parametrize("seed", SEEDS)
def test_worker_kill_chaos_leaks_nothing(seed):
    """The PR 7 crash profile (os._exit mid-task) through the new
    stop() escalation: zero shm segments after context teardown."""
    config = small_config(executors=2, default_parallelism=4, shuffle_partitions=4)
    config = dataclasses.replace(
        config, faults=cluster_chaos_profile(seed=seed, max_fires_per_site=2)
    )
    result, _stats, _trace = _run(config)
    assert result == EXPECTED
    assert _shm_segments() == [], f"seed {seed}: leaked shm segments"


def test_hung_worker_fence_reaps_spill_files():
    """A hang fence kills the worker mid-write; respawn must reap the
    dead pid's spill files so /tmp never accretes orphans."""
    config = _schedule_config(0, FaultProfile(seed=0, cluster_hang_p=1.0))
    with EngineContext(config, process_backend) as ctx:
        result = dict(
            ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b).collect()
        )
        stats = ctx.backend.stats()
        spill_root = ctx.shuffle_manager.spill_root
        dead_pids = stats["heartbeat_fences"]
        leftovers = [
            path
            for path in glob.glob(os.path.join(spill_root, "*.bin"))
            if "_p" in os.path.basename(path)
        ]
        live_pids = {slot.pid for slot in ctx.backend._slots}
        orphans = [
            path
            for path in leftovers
            if not any(f"_p{pid}_" in os.path.basename(path) for pid in live_pids)
        ]
    assert result == EXPECTED
    assert dead_pids > 0
    assert orphans == [], f"dead workers left spill files: {orphans}"
    assert _shm_segments() == []
