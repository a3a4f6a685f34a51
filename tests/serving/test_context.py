"""QueryContext: deadlines, cancellation tokens, contextvar plumbing."""

from __future__ import annotations

import threading

import pytest

from repro.errors import QueryCancelledError
from repro.engine.query import (
    CancellationToken,
    QueryContext,
    activate,
    active,
    check_cancelled,
    current_query,
    deactivate,
)


class TestCancellationToken:
    def test_first_cancel_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        assert token.cancel("deadline") is True
        assert token.cancel("memory") is False
        assert token.reason == "deadline"
        assert token.cancelled

    def test_concurrent_cancels_produce_one_winner(self):
        token = CancellationToken()
        wins = []
        barrier = threading.Barrier(4)

        def worker(reason: str) -> None:
            barrier.wait()
            if token.cancel(reason):
                wins.append(reason)

        threads = [
            threading.Thread(target=worker, args=(f"r{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert token.reason == wins[0]


class TestQueryContext:
    def test_unbounded_query_never_expires(self):
        query = QueryContext.create()
        assert query.remaining() is None
        assert not query.expired()
        query.check()  # no raise

    def test_deadline_expiry_self_cancels(self, clock):
        query = QueryContext.create(deadline_s=5.0, clock=clock)
        assert query.remaining() == pytest.approx(5.0)
        query.check()
        clock.advance(6.0)
        assert query.expired()
        with pytest.raises(QueryCancelledError) as exc:
            query.check()
        assert exc.value.reason == "deadline"
        assert exc.value.query_id == query.query_id

    def test_explicit_cancel_beats_later_deadline(self, clock):
        query = QueryContext.create(deadline_s=5.0, clock=clock)
        query.cancel("user")
        clock.advance(10.0)
        with pytest.raises(QueryCancelledError) as exc:
            query.check()
        assert exc.value.reason == "user"

    def test_query_ids_are_unique(self):
        a = QueryContext.create()
        b = QueryContext.create()
        assert a.query_id != b.query_id


class TestContextVar:
    def test_no_active_query_is_a_noop(self):
        assert current_query() is None
        check_cancelled()  # no raise

    def test_activate_deactivate(self):
        query = QueryContext.create()
        token = activate(query)
        try:
            assert current_query() is query
        finally:
            deactivate(token)
        assert current_query() is None

    def test_active_contextmanager_restores_on_error(self):
        query = QueryContext.create()
        query.cancel("user")
        with pytest.raises(QueryCancelledError):
            with active(query):
                check_cancelled()
        assert current_query() is None

    def test_pool_threads_do_not_inherit(self):
        query = QueryContext.create()
        seen = []
        token = activate(query)
        try:
            thread = threading.Thread(target=lambda: seen.append(current_query()))
            thread.start()
            thread.join()
        finally:
            deactivate(token)
        assert seen == [None]
