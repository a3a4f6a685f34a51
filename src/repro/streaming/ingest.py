"""Micro-batch ingestion: broker topic → Indexed DataFrame versions.

The structured-streaming shape of the paper's demo: a loop drains the
update topic in micro-batches and calls ``append_rows``, minting a new
MVCC version per batch. Readers grab :meth:`IndexedIngest.current` at
any moment and query a stable version while ingestion continues.

Runs either synchronously (:meth:`step`, for tests and benchmarks) or
on a supervised background thread (:meth:`start` / :meth:`stop`).

At-least-once contract:

* broker offsets are **committed only after** ``append_rows``
  succeeded, so a crash anywhere in the poll→apply window replays the
  batch instead of losing it;
* polls are retried with exponential backoff up to
  ``max_retries`` (default :data:`DEFAULT_MAX_RETRIES`) before raising
  :class:`~repro.errors.RetryExhaustedError`;
* replayed records are deduplicated against a per-partition *applied
  watermark* (the next offset each partition still owes the store), so
  at-least-once delivery composes into exactly-once application;
* a commit failure is tolerated (the next successful commit persists
  strictly newer offsets — worst case is a replay, which dedup
  absorbs);
* the background loop is supervised: a crashed iteration rewinds the
  consumer to the applied watermark, backs off, and restarts —
  counted in :attr:`loop_restarts`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.core.indexed_df import IndexedDataFrame
from repro.errors import ReproError, RetryExhaustedError
from repro.streaming.broker import Broker
from repro.streaming.consumer import Consumer

#: Retries allowed for a failed broker poll before the step gives up
#: with RetryExhaustedError.
DEFAULT_MAX_RETRIES = 5
#: Base of the poll-retry and supervised-loop backoff, in seconds.
DEFAULT_BACKOFF_S = 0.01
#: Hard cap on one supervised-loop backoff sleep.
_MAX_LOOP_BACKOFF_S = 0.5


class IndexedIngest:
    """Drains a topic of row tuples into an Indexed DataFrame."""

    def __init__(
        self,
        broker: Broker,
        topic: str,
        indexed: IndexedDataFrame,
        batch_size: int = 500,
        group: str = "ingest",
        on_batch: Callable[[IndexedDataFrame, int], None] | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ):
        self.consumer = Consumer(broker, topic, group)
        self.batch_size = batch_size
        self.on_batch = on_batch
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._current = indexed  # guarded-by: _lock
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Applied watermark: next offset each partition owes the store.
        # Starts at the committed offsets — everything below them was
        # applied by definition of the commit-after-apply contract.
        committed = broker.committed_offsets(group, topic)
        self._applied: dict[int, int] = {  # guarded-by: _lock
            p: committed.get(p, 0) for p in range(broker.num_partitions(topic))
        }
        self.batches_applied = 0  # guarded-by: _lock
        self.rows_applied = 0  # guarded-by: _lock
        self.poll_failures = 0  # guarded-by: _lock
        self.commit_failures = 0  # guarded-by: _lock
        self.duplicates_skipped = 0  # guarded-by: _lock
        self.loop_restarts = 0  # guarded-by: _lock
        self.last_error: BaseException | None = None  # guarded-by: _lock

    @property
    def current(self) -> IndexedDataFrame:
        """The latest ingested version (safe to query concurrently)."""
        with self._lock:
            return self._current

    # ------------------------------------------------------------------

    def step(self) -> int:
        """Apply one micro-batch; returns rows applied (0 if idle).

        Order of operations is the whole contract: poll (retried) →
        dedup against the applied watermark → ``append_rows`` → advance
        watermark → commit. A crash before the watermark advance leaves
        the batch uncommitted and unapplied (replayed next step); a
        crash after it is absorbed by dedup.
        """
        records = self._poll_with_retry()
        if not records:
            return 0
        fresh = [r for r in records if r.offset >= self._applied.get(r.partition, 0)]
        if len(fresh) < len(records):
            with self._lock:
                self.duplicates_skipped += len(records) - len(fresh)
        if not fresh:
            # Positions moved past already-applied records; persist that.
            self._try_commit()
            return 0
        rows = [tuple(r.value) for r in fresh]
        try:
            with self._lock:
                self._current = self._current.append_rows(rows)
                current = self._current
                for r in fresh:
                    nxt = r.offset + 1
                    if nxt > self._applied.get(r.partition, 0):
                        self._applied[r.partition] = nxt
        except BaseException:
            # Apply failed: rewind the consumer to the applied watermark
            # so the batch is re-polled rather than silently skipped.
            self.consumer.seek(dict(self._applied))
            raise
        self._log_watermark()
        self._try_commit()
        with self._lock:
            self.batches_applied += 1
            self.rows_applied += len(rows)
        if self.on_batch is not None:
            self.on_batch(current, len(rows))
        return len(rows)

    def _poll_with_retry(self):
        attempt = 0
        while True:
            try:
                return self.consumer.poll(self.batch_size)
            except ReproError as exc:
                with self._lock:
                    self.poll_failures += 1
                    self.last_error = exc
                if attempt >= self.max_retries:
                    raise RetryExhaustedError(
                        "ingest poll", attempt + 1, exc
                    ) from exc
                time.sleep(min(self.backoff_s * (2**attempt), _MAX_LOOP_BACKOFF_S))
                attempt += 1

    def _log_watermark(self) -> None:
        """Persist the applied watermark to the durable store (if any).

        Written *after* the rows were applied (and therefore WAL-logged)
        and *before* the broker commit: recovery restores broker offsets
        from the last durable marker, so a batch that reached this point
        is never re-applied after a restart. A crash in the small window
        between the row log and this marker degrades that one batch to
        at-least-once — the standard gap for non-transactional sinks —
        which the chaos suite tolerates explicitly.
        """
        durable = getattr(self.current.store, "durable_store", None)
        if durable is None:
            return
        with self._lock:
            watermark = dict(self._applied)
        try:
            durable.log_offsets(self.consumer.group, self.consumer.topic, watermark)
        except ReproError as exc:
            # Same tolerance as a commit failure: the next successful
            # marker persists strictly newer offsets; worst case is a
            # replayed batch, which dedup absorbs.
            with self._lock:
                self.commit_failures += 1
                self.last_error = exc

    def _try_commit(self) -> None:
        """Commit offsets; tolerate failure (replays are deduplicated)."""
        try:
            self.consumer.commit()
        except ReproError as exc:
            with self._lock:
                self.commit_failures += 1
                self.last_error = exc

    def drain(self) -> int:
        """Apply batches until the topic is empty; returns total rows."""
        total = 0
        while True:
            applied = self.step()
            if applied == 0 and self.consumer.lag() == 0:
                return total
            total += applied

    # ------------------------------------------------------------------

    def start(self, poll_interval: float = 0.01) -> None:
        """Start the supervised background ingestion loop."""
        if self._thread is not None:
            return
        self._stop.clear()

        def supervised_loop() -> None:
            while not self._stop.is_set():
                try:
                    while not self._stop.is_set():
                        if self.step() == 0:
                            time.sleep(poll_interval)
                except ReproError as exc:
                    # The worker died; restart it from the applied
                    # watermark after a bounded backoff.
                    with self._lock:
                        self.last_error = exc
                        self.loop_restarts += 1
                    self.consumer.seek(dict(self._applied))
                    self._stop.wait(
                        min(poll_interval * (2 ** min(self.loop_restarts, 6)),
                            _MAX_LOOP_BACKOFF_S)
                    )

        self._thread = threading.Thread(
            target=supervised_loop, name="indexed-ingest", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the loop (drains nothing further)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
