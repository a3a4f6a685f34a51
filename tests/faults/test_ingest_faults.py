"""At-least-once ingestion under broker faults: retries, dedup,
supervised restarts, and MVCC snapshot integrity."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import create_index
from repro.errors import RetryExhaustedError
from repro.faults import FaultInjector, FaultProfile
from repro.streaming import Broker, IndexedIngest, Producer

SCHEMA = [("id", "long"), ("payload", "string")]
BASE_ROWS = 50
#: Fast poll-retry backoff, so retry storms cost milliseconds.
BACKOFF_S = 0.0005


def make_world(session, profile=None, partitions=3):
    broker = Broker(FaultInjector(profile) if profile is not None else None)
    broker.create_topic("rows", partitions=partitions)
    base = session.create_dataframe(
        [(i, f"base{i}") for i in range(BASE_ROWS)], SCHEMA
    )
    return broker, create_index(base, "id")


class TestPollRetry:
    def test_drain_heals_broker_read_faults(self, make_session):
        session = make_session()
        profile = FaultProfile(seed=3, broker_read_p=1.0, max_fires_per_site=3)
        broker, indexed = make_world(session, profile)
        Producer(broker, "rows").send_all(
            [(100 + i, "x") for i in range(40)], key_fn=lambda r: r[0]
        )
        ingest = IndexedIngest(
            broker, "rows", indexed, batch_size=10, max_retries=5, backoff_s=BACKOFF_S
        )
        assert ingest.drain() == 40
        assert ingest.current.count() == BASE_ROWS + 40
        assert ingest.poll_failures == 3

    def test_poll_retries_exhaust(self, make_session):
        session = make_session()
        profile = FaultProfile(seed=3, broker_read_p=1.0)
        broker, indexed = make_world(session, profile)
        Producer(broker, "rows").send_all([(100, "x")])
        ingest = IndexedIngest(
            broker, "rows", indexed, max_retries=2, backoff_s=BACKOFF_S
        )
        with pytest.raises(RetryExhaustedError) as exc_info:
            ingest.step()
        assert exc_info.value.attempts == 3


class TestCommitFailureAndDedup:
    def test_commit_failure_is_tolerated(self, make_session):
        session = make_session()
        profile = FaultProfile(seed=1, broker_commit_p=1.0, max_fires_per_site=1)
        broker, indexed = make_world(session, profile)
        Producer(broker, "rows").send_all(
            [(200 + i, "x") for i in range(10)], key_fn=lambda r: r[0]
        )
        ingest = IndexedIngest(broker, "rows", indexed, batch_size=20)
        assert ingest.step() == 10
        assert ingest.commit_failures == 1
        assert ingest.current.count() == BASE_ROWS + 10

    def test_replay_after_lost_commit_is_deduplicated(self, make_session):
        session = make_session()
        profile = FaultProfile(seed=1, broker_commit_p=1.0, max_fires_per_site=1)
        broker, indexed = make_world(session, profile)
        Producer(broker, "rows").send_all(
            [(200 + i, "x") for i in range(10)], key_fn=lambda r: r[0]
        )
        ingest = IndexedIngest(broker, "rows", indexed, batch_size=20)
        assert ingest.step() == 10  # applied, but the commit was lost
        # Simulate a crash-and-restart of the consumer: it rewinds to
        # the committed offsets (none) and re-polls the same batch.
        ingest.consumer.rollback_to_committed()
        assert ingest.step() == 0
        assert ingest.duplicates_skipped == 10
        assert ingest.current.count() == BASE_ROWS + 10  # no double-apply
        # The healed commit persisted: a fresh consumer resumes past it.
        assert sum(broker.committed_offsets("ingest", "rows").values()) == 10

    def test_fresh_ingest_resumes_from_commit_after_apply(self, make_session):
        session = make_session()
        broker, indexed = make_world(session)
        Producer(broker, "rows").send_all(
            [(300 + i, "x") for i in range(12)], key_fn=lambda r: r[0]
        )
        ingest = IndexedIngest(broker, "rows", indexed, batch_size=20)
        ingest.drain()
        # A second ingest in the same group starts at the committed
        # offsets — nothing to replay, nothing lost.
        resumed = IndexedIngest(broker, "rows", ingest.current, batch_size=20)
        assert resumed.drain() == 0
        assert resumed.current.count() == BASE_ROWS + 12


class TestApplyAtomicity:
    def test_apply_failure_rewinds_and_replays(self, make_session):
        session = make_session()
        broker, indexed = make_world(session)
        Producer(broker, "rows").send_all(
            [(400 + i, "x") for i in range(8)], key_fn=lambda r: r[0]
        )
        ingest = IndexedIngest(broker, "rows", indexed, batch_size=20)
        real_append = indexed.append_rows
        failed_once = []

        def flaky_append(rows):
            if not failed_once:
                failed_once.append(True)
                raise RuntimeError("store write failed")
            return real_append(rows)

        indexed.append_rows = flaky_append  # instance-level shadow
        with pytest.raises(RuntimeError, match="store write failed"):
            ingest.step()
        # Nothing applied, nothing committed: the batch replays whole.
        assert ingest.current.count() == BASE_ROWS
        assert ingest.step() == 8
        assert ingest.current.count() == BASE_ROWS + 8
        assert ingest.duplicates_skipped == 0


class TestSupervisedLoop:
    def test_loop_restarts_after_poll_exhaustion(self, make_session):
        session = make_session()
        profile = FaultProfile(seed=9, broker_read_p=1.0, max_fires_per_site=3)
        broker, indexed = make_world(session, profile)
        Producer(broker, "rows").send_all(
            [(500 + i, "bg") for i in range(30)], key_fn=lambda r: r[0]
        )
        # max_retries=0: every injected read kills the loop body, so
        # recovery happens purely through supervision.
        ingest = IndexedIngest(
            broker, "rows", indexed, batch_size=10, max_retries=0, backoff_s=BACKOFF_S
        )
        ingest.start(poll_interval=0.002)
        try:
            deadline = time.time() + 5.0
            while ingest.current.count() < BASE_ROWS + 30 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            ingest.stop()
        assert ingest.current.count() == BASE_ROWS + 30
        assert ingest.loop_restarts >= 1
        assert ingest.rows_applied == 30
        assert isinstance(ingest.last_error, RetryExhaustedError)


class TestMVCCUnderFaults:
    def test_snapshots_stay_fully_readable_during_chaotic_ingest(self, make_session):
        session = make_session()
        profile = FaultProfile(seed=21, broker_read_p=0.2, broker_commit_p=0.2)
        broker, indexed = make_world(session, profile)
        producer = Producer(broker, "rows")
        ingest = IndexedIngest(
            broker, "rows", indexed, batch_size=16, max_retries=8, backoff_s=BACKOFF_S
        )
        total_sent = 240
        stop_readers = threading.Event()
        reader_errors: list[BaseException] = []

        def reader():
            last = 0
            while not stop_readers.is_set():
                try:
                    snapshot = ingest.current
                    count = snapshot.count()
                    rows = snapshot.collect()
                    # Monotonic growth and a fully readable version.
                    assert count >= last, "version count went backwards"
                    assert len(rows) == count, "partially visible version"
                    last = count
                except BaseException as exc:  # noqa: BLE001 - report to main thread
                    reader_errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        ingest.start(poll_interval=0.001)
        try:
            producer.send_all(
                [(1000 + i, f"r{i}") for i in range(total_sent)],
                key_fn=lambda r: r[0],
            )
            deadline = time.time() + 10.0
            while (
                ingest.current.count() < BASE_ROWS + total_sent
                and time.time() < deadline
            ):
                time.sleep(0.01)
        finally:
            ingest.stop()
            stop_readers.set()
            for t in threads:
                t.join(timeout=5.0)
        assert not reader_errors, reader_errors[0]
        # Exactly-once application despite at-least-once delivery.
        assert ingest.current.count() == BASE_ROWS + total_sent
        assert ingest.current.lookup_latest(1000 + total_sent - 1) is not None
