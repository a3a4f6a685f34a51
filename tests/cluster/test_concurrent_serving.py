"""Two served queries in flight on the process backend; one is cancelled.

Each worker slot owns its cancel flag, armed only while a task runs
there. Query A parks in a task on slot 0 and query B in a task on slot
1; cancelling A must stop A's task — B's other task can only run on
slot 0 once it has — and must not reach B's task on slot 1, which then
returns its rows. The workers are forked after the scan is patched and
meet the test on process-shared events, never on sleeps.
"""

from __future__ import annotations

import multiprocessing
import threading

from repro.engine.query import check_cancelled
from repro.errors import QueryCancelledError
from repro.sql.relation import RowRelation
from repro.sql.session import Session
from tests.serving.conftest import serving_config

#: Bound on every wait, so a regression fails instead of hanging.
WAIT_S = 30.0
#: Poll period of a parked task's cancellation check.
POLL_S = 0.01

_FORK = multiprocessing.get_context("fork")


def _table(session: Session, name: str, park_split: int, tag: str) -> list[tuple]:
    """A two-partition view whose partition ``park_split`` parks its task
    (it holds the row tagged ``tag``); returns the view's rows."""
    rows = [(i, tag if i == park_split * 3 else "plain") for i in range(6)]
    df = session.create_dataframe(
        rows, [("id", "long"), ("tag", "string")], num_partitions=2
    )
    session.create_or_replace_temp_view(name, df)
    return rows


def _serve(session: Session, text: str) -> tuple[threading.Thread, list]:
    out: list = []

    def run() -> None:
        try:
            out.append(session.serve(text).rows)
        except QueryCancelledError as exc:
            out.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, out


def test_cancel_reaches_only_the_cancelled_querys_slot(monkeypatch):
    parked = {"park-a": _FORK.Event(), "park-b": _FORK.Event()}
    # Query A's task is never released: only its cancel ends it.
    release = {"park-a": _FORK.Event(), "park-b": _FORK.Event()}
    scan = RowRelation._compute_partition

    def parking_scan(self, split, columns):
        for _id, tag in self._partitions[split]:
            if tag in parked:
                parked[tag].set()
                while not release[tag].wait(POLL_S):
                    check_cancelled()
        return scan(self, split, columns)

    # Patched before the session forks its workers, which inherit it.
    monkeypatch.setattr(RowRelation, "_compute_partition", parking_scan)
    # Four dispatch threads: each of the two parked tasks and B's task
    # queued behind A's on slot 0 holds one while it waits.
    session = Session(
        serving_config(executors=2, executor_threads=4, serving_queue_timeout_s=WAIT_S)
    )
    try:
        backend = session.ctx.backend
        _table(session, "ta", 0, "park-a")
        rows_b = _table(session, "tb", 1, "park-b")
        thread_a, out_a = _serve(session, "SELECT id, tag FROM ta")
        assert parked["park-a"].wait(WAIT_S)
        (query_a,) = session.serving._active.values()
        thread_b, out_b = _serve(session, "SELECT id, tag FROM tb")
        assert parked["park-b"].wait(WAIT_S)

        query_a.cancel("user")
        thread_a.join(WAIT_S)
        assert len(out_a) == 1 and isinstance(out_a[0], QueryCancelledError)
        # B's task on slot 1 is still parked, and its flag is clear.
        assert thread_b.is_alive()
        assert backend._slots[1].flag.value == 0

        release["park-b"].set()
        thread_b.join(WAIT_S)
        assert not thread_b.is_alive()
        assert out_b == [rows_b]
        assert [slot.flag.value for slot in backend._slots] == [0, 0]
    finally:
        release["park-b"].set()
        session.stop()
