"""Cancellation races under the deterministic interleaver.

The PR-4 interleaving driver parks registered threads at every cTrie
atomic operation. Worker A serves an aggregation whose map stage scans
an indexed (cTrie-backed) partition *inline on the driver thread*, so A
parks throughout the scan; worker B cancels the in-flight query. The
seeded schedule lands the cancel at a different atomic op each seed —
before admission, mid-scan, mid-shuffle-write, or after completion —
and every landing must leave the engine clean:

* the outcome is a result or a typed ``QueryCancelledError`` — never a
  hang, never a leaked slot;
* no incomplete shuffle state survives (a cancelled job drops its
  partially-written map outputs; complete ones may be retained);
* the session still serves correct results afterwards (no poisoned
  pool, no stuck admission accounting).
"""

from __future__ import annotations

import pytest

from repro.analysis.interleave import DeterministicInterleaver
from repro.config import Config
from repro.core import create_index
from repro.errors import QueryCancelledError, SimulatedCrash
from repro.faults import FaultProfile
from repro.sql.session import Session

from tests.serving.conftest import serving_config

QUERY = "SELECT id % 5 AS g, count(*) AS n FROM it GROUP BY id % 5"
EXPECTED = [(i, 12) for i in range(5)]


def make_race_session(make_serving_session) -> Session:
    # A single store partition makes the indexed map task run inline on
    # the serving thread, where the interleaver controls every cTrie
    # atomic read.
    session = make_serving_session(
        indexed=True, default_parallelism=1, serving_queue_timeout_s=5.0
    )
    df = session.create_dataframe(
        [(i, f"u{i}") for i in range(60)],
        [("id", "long"), ("name", "string")],
        num_partitions=1,
    )
    indexed = create_index(df, "id")
    session.create_or_replace_temp_view("it", indexed.to_df())
    return session


def assert_clean(session: Session) -> None:
    """The engine-wide hygiene invariants every interleaving must keep."""
    stats = session.serving.stats()
    assert stats["admission"]["running"] == 0
    assert stats["admission"]["queued"] == 0
    assert stats["memory"]["active_queries"] == 0
    assert stats["memory"]["total_bytes"] == 0
    manager = session.ctx.shuffle_manager
    with manager._lock:
        states = dict(manager._shuffles)
    for shuffle_id, state in states.items():
        assert state.complete(), f"shuffle {shuffle_id} left incomplete"


@pytest.mark.parametrize("seed", range(12))
def test_cancel_lands_anywhere_and_leaves_no_residue(
    make_serving_session, seed
):
    session = make_race_session(make_serving_session)
    outcomes: list = []
    done = [False]

    def serve() -> None:
        try:
            outcomes.append(session.serve(QUERY).rows)
        except QueryCancelledError as exc:
            outcomes.append(exc)
        finally:
            done[0] = True

    def cancel() -> None:
        # Wait (under driver control) until the query registers, then
        # fire the cancel. If the query already finished, cancel_all is
        # a no-op and the serve completes normally — also a valid
        # schedule.
        while not session.serving._active and not done[0]:
            pass
        session.serving.cancel_all("race")

    interleaver = DeterministicInterleaver(seed=seed, timeout_s=0.02)
    interleaver.run(serve, cancel)

    assert len(outcomes) == 1
    outcome = outcomes[0]
    if isinstance(outcome, QueryCancelledError):
        assert outcome.reason == "race"
    else:
        assert sorted(outcome) == EXPECTED
    assert_clean(session)
    # The engine is reusable: the same query now completes exactly.
    result = session.serve(QUERY)
    assert sorted(result.rows) == EXPECTED
    assert_clean(session)


def test_deadline_mid_shuffle_leaves_reusable_pool(make_serving_session):
    """A wall-clock deadline that expires mid-job: the cooperative
    polls unwind the stage, release the slot, and the pool serves the
    next query."""
    session = make_serving_session(
        indexed=True, serving_queue_timeout_s=5.0
    )
    df = session.create_dataframe(
        [(i, "x" * 200) for i in range(4000)],
        [("id", "long"), ("pad", "string")],
        num_partitions=8,
    )
    indexed = create_index(df, "id")
    session.create_or_replace_temp_view("it", indexed.to_df())
    cancelled = 0
    for _ in range(3):
        try:
            session.serve(
                "SELECT id % 7, count(*) FROM it GROUP BY id % 7",
                deadline_s=0.004,
            )
        except QueryCancelledError as exc:
            assert exc.reason == "deadline"
            cancelled += 1
    assert_clean(session)
    result = session.serve("SELECT count(*) FROM it")
    assert result.rows == [(4000,)]
    assert cancelled >= 1  # 4ms cannot scan 4000 padded rows


class TestCrashDuringServedLoad:
    def test_recovery_after_crash_with_shed_query(self, tmp_path):
        """A simulated crash lands mid-append while the serving layer is
        shedding a query; the next incarnation replays the WAL cleanly
        and serves correct results."""
        config = serving_config(
            executor_threads=1,
            default_parallelism=1,
            durability_enabled=True,
            durability_dir=str(tmp_path / "state"),
            serving_max_concurrent=1,
            serving_queue_depth=0,
            serving_queue_timeout_s=0.05,
            faults=FaultProfile(seed=4, crash_post_wal_p=1.0, max_fires_per_site=1),
        )
        from repro.core import enable_indexing

        session = Session(config)
        enable_indexing(session)
        df = session.create_dataframe([], [("id", "long"), ("name", "string")])
        indexed = create_index(df, "id", durable_name="t")

        # Occupy the only slot so the concurrent query is *shed* —
        # rejection is an error, not a hang, even as the store crashes.
        from repro.errors import QueryRejectedError
        from repro.engine.query import QueryContext

        holder = QueryContext.create()
        session.serving.admission.admit(holder)
        session.create_or_replace_temp_view("t", indexed.to_df())
        with pytest.raises(QueryRejectedError):
            session.serve("SELECT count(*) FROM t")
        session.serving.admission.release(holder)

        # The armed crash fires after the WAL write but before the
        # in-memory apply: the batch is durable but unacknowledged, the
        # canonical window WAL replay exists to close.
        with pytest.raises(SimulatedCrash):
            indexed.append_rows([(i, f"a{i}") for i in range(10)])
        # Simulated death: abandon the session without stop().

        survivor = Session(
            serving_config(
                executor_threads=1,
                default_parallelism=1,
                durability_enabled=True,
                durability_dir=str(tmp_path / "state"),
            )
        )
        enable_indexing(survivor)
        try:
            recovered = survivor.durability.recover("t")
            got = list(recovered.scan_tuples())
            # append_rows is atomic per partition, not across them: the
            # partitions WAL-written before the crash replay; nothing
            # else may appear, and nothing may duplicate.
            batch = {(i, f"a{i}") for i in range(10)}
            assert set(got) <= batch
            assert len(got) == len(set(got))
            assert recovered.count() == len(got)
            # Serving over the recovered store agrees with the scan.
            survivor.create_or_replace_temp_view("t", recovered.to_df())
            result = survivor.serve("SELECT count(*) FROM t")
            assert result.rows == [(len(got),)]
            # Life goes on: post-recovery appends are served too.
            recovered = recovered.append_rows([(100, "after")])
            survivor.create_or_replace_temp_view("t", recovered.to_df())
            again = survivor.serve("SELECT count(*) FROM t")
            assert again.rows == [(len(got) + 1,)]
        finally:
            survivor.stop()
        session.stop()
