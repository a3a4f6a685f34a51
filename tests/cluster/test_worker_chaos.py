"""Worker-kill chaos: injected ``os._exit`` mid-dispatch must never
lose or duplicate rows — the dispatcher respawns the worker, invalidates
the dead pid's spill outputs, and the scheduler recomputes lineage."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import process_backend
from repro.engine.context import EngineContext
from repro.faults import cluster_chaos_profile
from tests.conftest import small_config

SEEDS = list(range(20))

#: 600 rows over 40 keys; value multiset per key is exact, so a lost or
#: doubled map output shows up as a wrong aggregate, not just a count.
DATA = [(i % 40, i) for i in range(600)]
EXPECTED = {}
for key, value in DATA:
    EXPECTED[key] = EXPECTED.get(key, 0) + value


def _chaos_config(seed: int):
    config = small_config(
        executors=2,
        default_parallelism=4,
        shuffle_partitions=4,
    )
    return dataclasses.replace(
        config, faults=cluster_chaos_profile(seed=seed, max_fires_per_site=2)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_no_lost_or_duplicated_rows(seed):
    with EngineContext(_chaos_config(seed), process_backend) as ctx:
        result = dict(
            ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b).collect()
        )
        rows = sorted(ctx.parallelize(list(range(200)), 4).map(lambda x: x * 2).collect())
        stats = ctx.backend.stats()
        metrics = ctx.scheduler.metrics.snapshot()
    assert result == EXPECTED, f"seed {seed}: shuffle rows lost or duplicated"
    assert rows == [x * 2 for x in range(200)], f"seed {seed}: map rows diverged"
    # Every injected crash kills a worker mid-task; the dispatcher must
    # have observed each death it caused.
    assert stats["workers_lost"] >= stats["crashes_injected"]
    assert metrics["workers_lost"] == stats["workers_lost"]


def test_chaos_actually_fires():
    """At least one of the seeded profiles must exercise the crash path
    (otherwise the suite silently tests nothing)."""
    fired = 0
    for seed in SEEDS[:8]:
        with EngineContext(_chaos_config(seed), process_backend) as ctx:
            ctx.parallelize(DATA, 4).reduce_by_key(lambda a, b: a + b).collect()
            fired += ctx.backend.stats()["crashes_injected"]
    assert fired > 0
