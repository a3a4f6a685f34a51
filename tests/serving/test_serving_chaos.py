"""Closed-loop chaos over the serving layer: 20+ seeds, no hangs.

Each seed runs a small mixed workload (lookups, aggregations, appends)
through ``Session.serve`` from several threads while
:func:`~repro.faults.serving_chaos_profile` injects spurious admission
sheds, post-grant cancellations, failed breaker probes, task crashes,
shuffle losses, and index-probe deaths. The acceptance bar from the
issue: **no query ever hangs a worker slot** — every submission ends in
a result or a *typed* error within the join budget, and the governance
accounting drains to zero afterwards.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import create_index
from repro.errors import (
    InjectedFault,
    QueryCancelledError,
    ReproError,
    RetryExhaustedError,
)
from repro.faults import serving_chaos_profile

SEEDS = range(20)
JOIN_TIMEOUT_S = 60.0

#: Index builds per seed before setup gives up (see _index_under_chaos).
SETUP_ATTEMPTS = 3

QUERIES = [
    "SELECT id, name FROM it WHERE id = 7",  # indexed lookup
    "SELECT id % 4 AS g, count(*) AS n FROM it GROUP BY id % 4",  # analytic
    "SELECT count(*) FROM it",  # scan
]


def _index_under_chaos(df):
    """Index ``df`` on a chaos session. The build is setup, not the
    subject of the sweep: one whose task retries an *injected* fault
    exhausted (a typed outcome under chaos) is rebuilt, and each
    rebuild draws fresh events. Exhaustion with any other cause is a
    real failure and propagates."""
    for _ in range(SETUP_ATTEMPTS - 1):
        try:
            return create_index(df, "id")
        except RetryExhaustedError as exc:
            if not isinstance(exc.cause, InjectedFault):
                raise
    return create_index(df, "id")


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_load_under_chaos_never_hangs(make_serving_session, seed):
    session = make_serving_session(
        indexed=True,
        faults=serving_chaos_profile(seed=seed),
        task_max_retries=2,
        serving_queue_timeout_s=0.1,
        serving_default_deadline_s=20.0,
    )
    df = session.create_dataframe(
        [(i, f"u{i}") for i in range(80)],
        [("id", "long"), ("name", "string")],
        num_partitions=4,
    )
    indexed = _index_under_chaos(df)
    session.create_or_replace_temp_view("it", indexed.to_df())

    unexpected: list = []
    completed = [0]
    lock = threading.Lock()

    def worker(offset: int) -> None:
        for i in range(3):
            text = QUERIES[(offset + i) % len(QUERIES)]
            try:
                result = session.serve(text, tenant=f"t{offset % 2}")
                with lock:
                    completed[0] += 1
                assert result.rows is not None
            except (ReproError, QueryCancelledError):
                pass  # typed, expected under chaos
            except BaseException as exc:  # noqa: BLE001
                with lock:
                    unexpected.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(3)]
    for t in threads:
        t.start()
    # Appends race the served queries (the paper's core scenario).
    live = indexed
    for batch in range(3):
        try:
            live = live.append_rows(
                [(1000 + batch * 10 + i, "new") for i in range(10)]
            )
        except (ReproError, QueryCancelledError):
            pass
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT_S)

    hung = [t for t in threads if t.is_alive()]
    assert not hung, f"seed {seed}: {len(hung)} worker(s) hung"
    assert not unexpected, f"seed {seed}: untyped errors {unexpected!r}"

    # Governance accounting drained: no slot, queue entry, byte, or
    # active registration outlives its query.
    stats = session.serving.stats()
    assert stats["admission"]["running"] == 0
    assert stats["admission"]["queued"] == 0
    assert stats["memory"]["active_queries"] == 0
    assert stats["memory"]["total_bytes"] == 0
    assert session.serving.cancel_all() == 0
    # Metrics are conserved: every submission is accounted exactly once.
    serving = stats["serving"]
    assert serving["submitted"] == 9
    assert (
        serving["completed"]
        + serving["rejected"]
        + serving["cancelled"]
        + serving["failed"]
        == serving["submitted"]
    )
    # Breakers end in a legal state.
    for site, snap in stats["breakers"].items():
        assert snap["state"] in ("closed", "open", "half_open"), site


def test_chaos_survivor_serves_exactly_after_faults_drain(
    make_serving_session,
):
    """With a capped fire budget the chaos drains, breakers close via
    probes, and the session returns to exact serving."""
    session = make_serving_session(
        indexed=True,
        faults=serving_chaos_profile(seed=3, max_fires_per_site=2),
        task_max_retries=3,
        serving_breaker_reset_s=0.01,
        serving_queue_timeout_s=2.0,
    )
    df = session.create_dataframe(
        [(i, f"u{i}") for i in range(80)],
        [("id", "long"), ("name", "string")],
        num_partitions=4,
    )
    indexed = create_index(df, "id")
    session.create_or_replace_temp_view("it", indexed.to_df())

    import time

    deadline = time.monotonic() + 30.0
    result = None
    while time.monotonic() < deadline:
        try:
            result = session.serve("SELECT count(*) FROM it")
            break
        except (ReproError, QueryCancelledError):
            time.sleep(0.02)
    assert result is not None, "chaos never drained"
    assert result.rows == [(80,)]
