"""Ablation A5 — indexed join: shuffle vs broadcast-probe crossover.

Paper §2 (Indexed Join): *"When the Dataframe size is small enough to
be broadcasted efficiently, our implementation falls back to a
broadcast-join instead of a shuffle."* We sweep the probe-side size
across the broadcast threshold and benchmark both dispatch modes; for
small probes the broadcast path should win (no shuffle), for large
probes the shuffle path amortizes.
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql import Session

BUILD_ROWS = 50_000
PROBE_SIZES = [100, 1_000, 10_000]
THRESHOLD = 1_000


@pytest.fixture(scope="module")
def setup():
    session = Session(
        Config(
            executor_threads=2,
            shuffle_partitions=4,
            broadcast_threshold=THRESHOLD,
        )
    )
    enable_indexing(session)
    build_df = session.create_dataframe(
        [(i, f"item{i}", float(i)) for i in range(BUILD_ROWS)],
        [("id", "long"), ("name", "string"), ("value", "double")],
        validate=False,
    )
    indexed = create_index(build_df, "id")
    probes = {
        n: session.create_dataframe(
            [(i * (BUILD_ROWS // n), i) for i in range(n)],
            [("pid", "long"), ("seq", "long")],
            validate=False,
        ).cache()
        for n in PROBE_SIZES
    }
    yield session, indexed, probes
    session.stop()


@pytest.mark.parametrize("probe_size", PROBE_SIZES)
def test_indexed_join_over_probe_sizes(benchmark, setup, probe_size):
    _session, indexed, probes = setup
    probe = probes[probe_size]

    def run() -> int:
        return indexed.join(probe, on=indexed.col("id") == probe.col("pid")).count()

    matches = run()
    assert matches == probe_size  # every probe key exists exactly once

    benchmark.pedantic(run, rounds=5, warmup_rounds=1, iterations=1)
