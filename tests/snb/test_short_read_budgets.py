"""Work budgets of a repeated SNB short read (paper Figure 3).

Timings on a shared host swing by tens of per cent; work counts do not.
Each indexed query SQ1–SQ7, once its shape is in the plan cache, costs
exactly the jobs, tasks and analyzer calls pinned here, whatever its
key — and, after an append (benchmark A3), still the same jobs and
tasks with no plan-cache miss, no kernel compile and no cache eviction.
A change that moves one of these numbers says why.
"""

from __future__ import annotations

import pytest

from repro import codegen
from repro.config import Config
from repro.core import enable_indexing
from repro.snb import ALL_QUERIES, generate, load_indexed, run_query, update_stream
from repro.sql.analysis import Analyzer
from repro.sql.session import Session

#: query -> (jobs, tasks, Analyzer.analyze calls) per repeated read.
#: Analysis runs only for the intermediate frames a query calls
#: ``df.col()`` on: none in SQ1/SQ2/SQ4, ``friend_edges`` (SQ3),
#: ``fans`` (SQ5), ``replies`` (SQ7), and ``post``, ``member_counts``,
#: ``with_forum`` and ``with_counts`` (SQ6).
BUDGETS = {
    "SQ1": (2, 5, 0),
    "SQ2": (3, 6, 0),
    "SQ3": (3, 6, 1),
    "SQ4": (2, 5, 0),
    "SQ5": (2, 5, 1),
    "SQ6": (5, 19, 4),
    "SQ7": (3, 6, 1),
}


@pytest.fixture(scope="module")
def world():
    session = Session(
        Config(shuffle_partitions=4, default_parallelism=4)
    )
    enable_indexing(session)
    dataset = generate(scale_factor=0.1, seed=7)
    indexed = load_indexed(session, dataset)
    yield session, dataset, indexed
    session.stop()


@pytest.fixture()
def analyze_calls(monkeypatch):
    calls = []
    original = Analyzer.analyze

    def counting(self, plan):
        calls.append(plan)
        return original(self, plan)

    monkeypatch.setattr(Analyzer, "analyze", counting)
    return calls


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_repeated_short_read_work(world, analyze_calls, name):
    session, dataset, indexed = world
    kind = ALL_QUERIES[name][1]
    keys = dataset.person_ids() if kind == "person" else dataset.message_ids()
    run_query(indexed, name, keys[0])  # the miss that builds the template
    metrics = session.ctx.scheduler.metrics
    for key in keys[1::max(1, len(keys) // 8)]:
        before, calls = metrics.snapshot(), len(analyze_calls)
        run_query(indexed, name, key)
        after = metrics.snapshot()
        spent = (
            after["jobs"] - before["jobs"],
            after["tasks"] - before["tasks"],
            len(analyze_calls) - calls,
        )
        assert spent == BUDGETS[name], (name, key)
        assert after["plan_cache_misses"] == before["plan_cache_misses"]


def test_append_then_same_query_work(world):
    """A3: an append, then the same query. Indexed leaves key the plan
    template by store, not by version, so a read at each new version
    reuses the template and its kernels, and the append leaves the
    block-manager cache whole."""
    session, dataset, indexed = world
    persons, messages = dataset.person_ids(), dataset.message_ids()

    def key_of(name):
        return (persons if ALL_QUERIES[name][1] == "person" else messages)[1]

    for name in sorted(BUDGETS):
        run_query(indexed, name, key_of(name))  # templates and kernels
    metrics = session.ctx.scheduler.metrics
    cache = session.ctx.block_manager.stats
    for batch in update_stream(dataset, 3, rows_per_batch=20):
        indexed = indexed.with_appended(
            persons=batch.persons, knows=batch.knows, messages=batch.messages
        )
        for name in sorted(BUDGETS):
            before, compiled = metrics.snapshot(), codegen.stats().compiled
            evictions = cache.snapshot()["evictions"]
            run_query(indexed, name, key_of(name))
            after = metrics.snapshot()
            spent = (after["jobs"] - before["jobs"], after["tasks"] - before["tasks"])
            where = (name, batch.sequence)
            assert spent == BUDGETS[name][:2], where
            assert after["plan_cache_misses"] == before["plan_cache_misses"], where
            assert codegen.stats().compiled == compiled, where
            assert cache.snapshot()["evictions"] == evictions, where
