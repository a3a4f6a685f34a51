"""Crash-recovery chaos: seeded kill/restart, verified differentially.

The harness runs a fixed append workload (8 micro-batches with unique
keys, a manual checkpoint after batches 2 and 5) against a durable
store while exactly one seeded crash site is armed. Wherever the
simulated process death lands — before the WAL write, after it, mid-
checkpoint, post-checkpoint-commit, or inside a torn ``write(2)`` —
a fresh session recovers the store and the result is checked against
the uninterrupted reference run:

* **no committed row lost** — every row of every acknowledged batch is
  present after recovery;
* **no uncommitted row resurrected** — recovered rows beyond the
  acknowledged prefix can only come from the single in-flight batch
  (``append_rows`` is atomic per partition, not across partitions, so
  a crash mid-batch may legally persist the partitions it finished);
* **no duplicates, consistent store** — counts, scans, and index
  lookups agree, and appending after recovery works and is durable.

Every (site × seed) combination replays identically: each injector
decision is a keyed hash of the seed, the site and the draw's ordinal.
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index
from repro.errors import DurabilityError, SimulatedCrash
from repro.faults import FaultProfile
from repro.sql.session import Session

SCHEMA = [("id", "long"), ("name", "string")]
NUM_BATCHES = 8
BATCH_ROWS = 10
CHECKPOINT_AFTER = {2, 5}
SEEDS = range(20)

#: site → (FaultProfile field, probability). Probabilities are tuned so
#: that across 20 seeds each site both fires at varying points of the
#: workload and, for some seeds, never fires (exercising the clean path
#: through the same differential assertions).
CRASH_SITES = {
    "crash.pre_wal": ("crash_pre_wal_p", 0.08),
    "crash.post_wal": ("crash_post_wal_p", 0.08),
    "crash.mid_checkpoint": ("crash_mid_checkpoint_p", 0.25),
    "crash.post_checkpoint": ("crash_post_checkpoint_p", 0.5),
    "disk.write.torn": ("disk_torn_write_p", 0.08),
}


def batch_rows(batch: int) -> list[tuple]:
    return [
        (batch * 1000 + i, f"b{batch}r{i}") for i in range(BATCH_ROWS)
    ]


def reference_rows(num_batches: int) -> set[tuple]:
    return {row for b in range(num_batches) for row in batch_rows(b)}


def durable_session(state_dir, profile: FaultProfile | None = None) -> Session:
    return Session(
        Config(
            shuffle_partitions=4,
            default_parallelism=1,
            batch_size_bytes=64 * 1024,
            durability_enabled=True,
            durability_dir=str(state_dir),
            faults=profile,
        )
    )


def run_workload(session: Session, name: str):
    """Apply the workload until completion or simulated death.

    Returns ``(acked_batches, in_flight_rows)``: the number of batches
    whose ``append_rows`` returned, and the rows of the batch that was
    mid-append when the crash hit (empty when the crash hit a
    checkpoint instead, or never hit).
    """
    df = session.create_dataframe([], SCHEMA)
    indexed = create_index(df, "id", durable_name=name)
    store = session.durability.store(name)
    acked = 0
    for batch in range(NUM_BATCHES):
        rows = batch_rows(batch)
        try:
            indexed = indexed.append_rows(rows)
        except SimulatedCrash:
            return acked, rows
        acked += 1
        if batch in CHECKPOINT_AFTER:
            try:
                store.checkpoint()
            except SimulatedCrash:
                return acked, []
            except DurabilityError:
                pass  # transient checkpoint failure; WAL still covers us
    return acked, []


@pytest.mark.parametrize("site", sorted(CRASH_SITES))
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_recovery_differential(tmp_path, site, seed):
    field, probability = CRASH_SITES[site]
    profile = FaultProfile(
        seed=seed, max_fires_per_site=1, **{field: probability}
    )
    # --- incarnation 1: run under chaos until (simulated) death.
    chaos = durable_session(tmp_path / "state", profile)
    acked, in_flight = run_workload(chaos, "t")
    # Simulated process death: the session is abandoned, not stopped —
    # WAL handles stay open and nothing is flushed beyond what the
    # protocol already made durable.

    # --- incarnation 2: recover and verify against the reference.
    survivor = durable_session(tmp_path / "state")
    try:
        recovered = survivor.durability.recover("t")
        assert recovered is not None
        got = list(recovered.scan_tuples())
        got_set = set(got)
        committed = reference_rows(acked)
        # No committed row lost.
        assert committed <= got_set, (
            f"{site} seed={seed}: lost {sorted(committed - got_set)[:5]}"
        )
        # No uncommitted row resurrected (in-flight partials allowed).
        assert got_set <= committed | set(in_flight), (
            f"{site} seed={seed}: resurrected "
            f"{sorted(got_set - committed - set(in_flight))[:5]}"
        )
        # No duplicates; count/index/scan agree.
        assert len(got) == len(got_set)
        assert recovered.count() == len(got)
        for row in list(committed)[:10]:
            assert recovered.get_rows_local(row[0]) == [row]
        # Life goes on: appends after recovery are applied and durable.
        extra = [(99_000 + i, "after") for i in range(5)]
        recovered.append_rows(extra)
    finally:
        survivor.stop()

    # --- incarnation 3: the post-recovery appends survived too.
    final_session = durable_session(tmp_path / "state")
    try:
        final = final_session.durability.recover("t")
        assert set(final.scan_tuples()) == got_set | set(extra)
    finally:
        final_session.stop()
    chaos.stop()


def test_reference_run_is_complete(tmp_path):
    """The uninterrupted workload itself recovers bit-for-bit — the
    baseline the chaos assertions compare against."""
    session = durable_session(tmp_path / "state")
    acked, in_flight = run_workload(session, "t")
    assert acked == NUM_BATCHES and in_flight == []
    session.stop()
    survivor = durable_session(tmp_path / "state")
    try:
        recovered = survivor.durability.recover("t")
        assert set(recovered.scan_tuples()) == reference_rows(NUM_BATCHES)
        assert recovered.count() == NUM_BATCHES * BATCH_ROWS
    finally:
        survivor.stop()


def test_each_site_fires_for_some_seed(tmp_path):
    """Meta-check: the tuned probabilities actually exercise every
    crash point across the seed range (guards against a silent no-op
    chaos suite if sites are renamed). The clean path is covered
    separately by test_reference_run_is_complete."""
    from repro.faults import FaultInjector

    for site, (field, probability) in CRASH_SITES.items():
        fired = 0
        for seed in SEEDS:
            profile = FaultProfile(
                seed=seed, max_fires_per_site=1, **{field: probability}
            )
            injector = FaultInjector(profile)
            if any(injector.should_fire(site) for _ in range(30)):
                fired += 1
        assert fired, f"site {site} never fires across seeds {SEEDS}"
