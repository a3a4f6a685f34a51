"""Small-batch differential: SNB short reads on a pruned, adaptive world.

One session with 8 KiB row batches (several batches per partition, so
zone maps have batches to skip) loads the same generated world twice:
indexed, and as the cached vanilla DataFrames. Every query must return
identical rows on both — pruning and runtime replanning are pure
execution-strategy changes — and a range scan over an indexed table
must actually skip batches, so the pruned path is the one compared.
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import enable_indexing
from repro.snb import ALL_QUERIES, generate, load_indexed, load_vanilla, run_query
from repro.sql.functions import col
from repro.sql.session import Session


@pytest.fixture(scope="module")
def worlds():
    session = Session(
        Config(
            shuffle_partitions=4,
            default_parallelism=2,
            batch_size_bytes=8 * 1024,  # several batches per partition
        )
    )
    enable_indexing(session)
    dataset = generate(scale_factor=0.2, seed=11)
    indexed = load_indexed(session, dataset)
    vanilla = load_vanilla(session, dataset)
    yield dataset, indexed, vanilla
    session.stop()


@pytest.mark.parametrize("name", list(ALL_QUERIES))
def test_adaptive_equals_static(worlds, name):
    dataset, indexed, vanilla = worlds
    kind = ALL_QUERIES[name][1]
    params = (
        dataset.person_ids()[::61] if kind == "person"
        else dataset.message_ids()[::211]
    )
    for param in params[:3]:
        expected = sorted(map(tuple, run_query(vanilla, name, param)))
        actual = sorted(map(tuple, run_query(indexed, name, param)))
        assert actual == expected, f"{name} diverged for parameter {param}"


def test_range_scan_prunes_batches(worlds):
    dataset, indexed, vanilla = worlds
    ids = sorted(dataset.message_ids())
    newest = col("id") >= ids[len(ids) * 9 // 10]
    metrics = indexed.session.ctx.pruning_metrics
    before = metrics.snapshot()["batches_pruned"]
    got = sorted(map(tuple, indexed.message_by_creator.filter(newest).collect_tuples()))
    assert metrics.snapshot()["batches_pruned"] > before
    expected = sorted(map(tuple, vanilla.message_by_id.filter(newest).collect_tuples()))
    assert got == expected
    assert got


def test_updates_visible_on_both(worlds):
    dataset, indexed, vanilla = worlds
    pid = dataset.person_ids()[0]
    new_id = max(dataset.message_ids()) + 555
    message = (
        new_id, pid, 88_888_888_888_888, "differential", 12, True,
        dataset.forums[0][0], None, "9.9.9.9", "Lynx",
    )
    fresh_indexed = indexed.with_appended(messages=[message])
    fresh_vanilla = vanilla.with_appended(messages=[message])
    got_i = sorted(map(tuple, run_query(fresh_indexed, "SQ2", pid)))
    got_v = sorted(map(tuple, run_query(fresh_vanilla, "SQ2", pid)))
    assert got_i == got_v
    assert any(new_id in row for row in got_i)
