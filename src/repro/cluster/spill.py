"""Shuffle spill files: the process backend's map-output medium.

The engine's :class:`~repro.engine.shuffle.ShuffleManager` is one
registry over two media. In process it keeps buckets as Python lists;
across processes the map side buckets its records with the same
:func:`~repro.engine.shuffle.bucketize`, spills each reduce bucket to a
per-map file (pickled, one contiguous region per bucket) and returns a
compact :class:`MapStatus` — path, per-bucket offsets, per-bucket
``(rows, est_bytes)`` — that the registry commits. Reduce tasks receive
the committed statuses in their task envelope and read exactly the one
region their bucket needs. A status the registry drops unlinks its file.

Files are named by writer pid so the coordinator can invalidate (and
delete) everything a dead worker produced — worker death loses that
executor's map outputs, exactly Spark's fault model, and the lineage
machinery recomputes them.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.engine.shuffle import bucketize
from repro.errors import FetchFailedError
from repro.serialize import PICKLE_PROTOCOL

_spill_seq = itertools.count()

#: Base of the spill-read retry backoff (attempt n sleeps n * base).
_READ_BACKOFF_S = 0.005

#: This process's (slot, generation) identity, stamped into every
#: MapStatus it writes. Workers set it at spawn; the driver keeps the
#: default — a negative slot marks driver-side writes (codec-fallback
#: in-process map tasks), which the fencing machinery exempts.
DRIVER_IDENTITY = (-1, 0)
_worker_identity = DRIVER_IDENTITY


def set_worker_identity(slot: int, generation: int) -> None:
    """Install this worker process's fencing identity (worker_main)."""
    global _worker_identity
    _worker_identity = (slot, generation)


@dataclass(frozen=True)
class MapStatus:
    """One committed map output: where its buckets live on disk."""

    shuffle_id: int
    map_index: int
    path: str
    #: Per reduce bucket: (file offset, byte length).
    offsets: tuple[tuple[int, int], ...]
    #: Per reduce bucket: (rows, est_bytes) — adaptive planning input.
    sizes: tuple[tuple[int, int], ...]
    #: pid of the writing process; dead-worker invalidation key.
    pid: int
    #: Fencing identity of the writer: worker slot (-1 = driver-side)
    #: and slot generation. A status whose (slot, generation) was
    #: fenced before commit is stale zombie output and is rejected.
    slot: int = -1
    generation: int = 0

    def drop(self) -> None:
        """Unlink the spill file (already gone is fine)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


@dataclass(frozen=True)
class SpillMapWriter:
    """Picklable map-output writer shipped inside map-task closures.

    Carries no locks and no manager reference, so it crosses the
    process boundary; the partitioner and (by-value pickled) aggregator
    callables feed the same :func:`~repro.engine.shuffle.bucketize` the
    in-memory medium uses.
    """

    root: str
    shuffle_id: int
    partitioner: Any
    aggregator: Any
    map_side_combine: bool

    def __call__(
        self, map_index: int, records: Iterable[tuple[Any, Any]]
    ) -> MapStatus:
        buckets, sizes = bucketize(
            self.partitioner, self.aggregator, self.map_side_combine, records
        )
        slot, generation = _worker_identity
        # Unique per (map attempt, process, generation): a speculative
        # duplicate, a retried attempt, or a fenced zombie's leftover
        # never clobbers a file a reduce task may already be reading —
        # and the generation in the name lets the reaper tell a live
        # slot's files from a fenced generation's.
        name = (
            f"s{self.shuffle_id}_m{map_index}_"
            f"p{os.getpid()}_g{generation}_{next(_spill_seq)}.bin"
        )
        path = os.path.join(self.root, name)
        offsets = []
        with open(path, "wb") as fh:
            at = 0
            for bucket in buckets:
                blob = pickle.dumps(bucket, protocol=PICKLE_PROTOCOL)
                fh.write(blob)
                offsets.append((at, len(blob)))
                at += len(blob)
        return MapStatus(
            self.shuffle_id, map_index, path, tuple(offsets), sizes,
            os.getpid(), slot, generation,
        )


def read_bucket(
    status: MapStatus, reduce_index: int, max_retries: int = 2
) -> list[Any]:
    """Read one bucket region with bounded retry/backoff.

    A transient FS hiccup (EINTR, a momentarily unavailable page)
    heals on a short backoff; a file that died with its worker keeps
    failing and surfaces as a fetch failure after ``max_retries``
    extra attempts — the scheduler then repairs it through lineage
    recomputation. A *missing* file never retries: deletion is how
    invalidation works, so absence is definitive, not transient.
    """
    offset, length = status.offsets[reduce_index]
    attempt = 0
    while True:
        try:
            with open(status.path, "rb") as fh:
                fh.seek(offset)
                blob = fh.read(length)
            if len(blob) != length:
                raise OSError("short read")
            return pickle.loads(blob)
        except FileNotFoundError as exc:
            raise FetchFailedError(
                status.shuffle_id,
                status.map_index,
                f"shuffle {status.shuffle_id}: map output {status.map_index} "
                f"unreadable ({exc})",
            ) from None
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            attempt += 1
            if attempt > max_retries:
                raise FetchFailedError(
                    status.shuffle_id,
                    status.map_index,
                    f"shuffle {status.shuffle_id}: map output "
                    f"{status.map_index} unreadable after {attempt} "
                    f"attempt(s) ({exc})",
                ) from None
            time.sleep(_READ_BACKOFF_S * attempt)
