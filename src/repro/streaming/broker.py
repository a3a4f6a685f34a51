"""In-process message broker: topics, partitions, offsets.

Semantics follow Kafka where it matters to the demo:

* a topic has N partitions, each an append-only log;
* records are ``(key, value)``; the producer routes by key hash (or
  round-robin for None keys);
* consumers read by ``(topic, partition, offset)`` — the broker never
  deletes or mutates records, so re-reads are always possible;
* thread-safe: producers and consumers run on different threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import StreamingError
from repro.faults import NULL_INJECTOR, FaultInjector


@dataclass(frozen=True)
class TopicPartition:
    """Address of one partition of a topic."""

    topic: str
    partition: int


@dataclass(frozen=True)
class Record:
    """One stored record."""

    topic: str
    partition: int
    offset: int
    key: Any
    value: Any


class _PartitionLog:
    __slots__ = ("records", "lock")

    def __init__(self) -> None:
        self.records: list[Record] = []
        self.lock = threading.Lock()


class Broker:
    """Holds every topic's partition logs.

    An optional :class:`~repro.faults.FaultInjector` simulates delivery
    failures: reads and offset commits raise
    :class:`~repro.errors.InjectedFault` when their site fires. The log
    itself is never corrupted — exactly like a network fault in front
    of a durable Kafka partition — so retries always see intact data.
    """

    def __init__(self, injector: FaultInjector | None = None) -> None:
        self._topics: dict[str, list[_PartitionLog]] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._injector = injector or NULL_INJECTOR
        # Committed consumer-group offsets live on the broker (as in
        # Kafka), keyed by (group, topic) → {partition: offset}.
        self._committed: dict[tuple[str, str], dict[int, int]] = {}  # guarded-by: _lock

    def create_topic(self, name: str, partitions: int = 1) -> None:
        if partitions < 1:
            raise StreamingError("a topic needs at least one partition")
        with self._lock:
            if name in self._topics:
                raise StreamingError(f"topic {name!r} already exists")
            self._topics[name] = [_PartitionLog() for _ in range(partitions)]

    def topics(self) -> list[str]:
        with self._lock:
            return sorted(self._topics)

    def num_partitions(self, topic: str) -> int:
        return len(self._logs(topic))

    def _logs(self, topic: str) -> list[_PartitionLog]:
        with self._lock:
            try:
                return self._topics[topic]
            except KeyError:
                raise StreamingError(f"unknown topic: {topic}") from None

    # ------------------------------------------------------------------

    def append(self, topic: str, partition: int, key: Any, value: Any) -> int:
        """Append one record; returns its offset."""
        logs = self._logs(topic)
        if not 0 <= partition < len(logs):
            raise StreamingError(
                f"partition {partition} out of range for topic {topic!r}"
            )
        log = logs[partition]
        with log.lock:
            offset = len(log.records)
            log.records.append(Record(topic, partition, offset, key, value))
            return offset

    def read(
        self, tp: TopicPartition, offset: int, max_records: int
    ) -> Sequence[Record]:
        """Records from ``offset`` (inclusive), at most ``max_records``."""
        self._injector.maybe_fail("broker.read", tp.partition)
        logs = self._logs(tp.topic)
        log = logs[tp.partition]
        with log.lock:
            return log.records[offset : offset + max_records]

    def end_offset(self, tp: TopicPartition) -> int:
        """The offset one past the last record (Kafka's log end offset)."""
        log = self._logs(tp.topic)[tp.partition]
        with log.lock:
            return len(log.records)

    def total_records(self, topic: str) -> int:
        return sum(
            self.end_offset(TopicPartition(topic, p))
            for p in range(self.num_partitions(topic))
        )

    # ------------------------------------------------------------------
    # Consumer-group offsets
    # ------------------------------------------------------------------

    def committed_offsets(self, group: str, topic: str) -> dict[int, int]:
        with self._lock:
            return dict(self._committed.get((group, topic), {}))

    def commit_offsets(
        self, group: str, topic: str, positions: dict[int, int]
    ) -> None:
        """Persist consumer-group positions — **advance-only** per
        partition.

        A consumer that crashed between poll and commit (or a laggy
        concurrent consumer in the same group committing stale
        positions) must never rewind the group below offsets another
        member already committed: rewinding would re-deliver records a
        restarted consumer treats as fresh. Deliberate rewinds go
        through :meth:`Consumer.seek`, which is in-memory per consumer.
        """
        self._injector.maybe_fail("broker.commit")
        with self._lock:
            current = self._committed.setdefault((group, topic), {})
            for partition, offset in positions.items():
                if offset > current.get(partition, 0):
                    current[partition] = offset

    def restore_committed_offsets(
        self, group: str, topic: str, positions: dict[int, int]
    ) -> None:
        """Install recovered offsets (crash recovery), advance-only.

        Identical merge semantics to :meth:`commit_offsets` but without
        the injected-fault site: recovery must not be tripped by the
        chaos profile that killed the previous incarnation.
        """
        with self._lock:
            current = self._committed.setdefault((group, topic), {})
            for partition, offset in positions.items():
                if offset > current.get(partition, 0):
                    current[partition] = offset
