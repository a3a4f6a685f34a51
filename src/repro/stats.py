"""Statistics for statistics-driven execution: zone maps and pruning.

The paper's Indexed DataFrame wins by *skipping work* — ``getRows``
touches one hash partition instead of scanning all of them (§2). This
module generalizes that idea into lightweight, updatable per-partition
and per-batch summaries (zone maps, in the CUBIT sense: cheap min/max /
null-count sketches that stay correct under appends). The predicate
analysis that turns a filter condition into skip decisions is SQL's
(:mod:`repro.sql.pruning`); this leaf module only consumes its
predicates.

Two pieces live here because every layer needs them:

* :class:`ColumnStats` / :class:`ZoneMap` — incremental per-column
  summaries maintained by the storage layer (row batches, indexed
  partitions) and computed lazily by the vanilla relations;
  :meth:`ZoneMap.may_match` decides whether a zone can possibly
  contain a row matching a list of pruning predicates;
* :class:`PruningMetrics` — counters proving what was skipped, surfaced
  by benchmarks, tests, and the CI smoke job.

Soundness contract: ``may_match`` may return ``True`` spuriously (the
filter above the scan re-checks every row) but must never return
``False`` for a zone that contains a matching row. Anything the
analysis cannot prove — mixed-type columns, non-literal operands,
unknown operators — degrades to "may match".
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.pruning import PruningPredicate

class ColumnStats:
    """Incremental min/max/null-count summary of one column.

    ``valid`` turns False the first time two values fail to compare
    (mixed-type columns); from then on the column can never prune.
    """

    __slots__ = ("min", "max", "nulls", "valid")

    def __init__(self) -> None:
        self.min: Any = None
        self.max: Any = None
        self.nulls = 0
        self.valid = True

    def update(self, value: Any) -> None:
        if value is None:
            self.nulls += 1
            return
        if not self.valid:
            return
        try:
            if self.min is None:
                self.min = value
                self.max = value
            elif value < self.min:
                self.min = value
            elif value > self.max:
                self.max = value
        except TypeError:
            self.min = None
            self.max = None
            self.valid = False

    def merge(self, other: "ColumnStats") -> None:
        self.nulls += other.nulls
        if not other.valid:
            self.min = None
            self.max = None
            self.valid = False
        if not self.valid:
            return
        if other.min is not None:
            self.update(other.min)
            self.update(other.max)

    def copy(self) -> "ColumnStats":
        out = ColumnStats()
        out.min = self.min
        out.max = self.max
        out.nulls = self.nulls
        out.valid = self.valid
        return out

    def __repr__(self) -> str:
        if not self.valid:
            return f"ColumnStats(invalid, nulls={self.nulls})"
        return f"ColumnStats(min={self.min!r}, max={self.max!r}, nulls={self.nulls})"


class ZoneMap:
    """Per-column summaries for one zone (a row batch or a partition).

    Zone maps are shared by reference across MVCC snapshots (only the
    active tail zone is copied), so a sealed zone must never change
    again. :meth:`seal` write-poisons the zone: with sanitizers on, the
    storage layer seals every zone it publishes to a snapshot or rolls
    past, and any later :meth:`update_row` / :meth:`merge` raises
    :class:`~repro.errors.SanitizerError` (rule SZ001) instead of
    silently corrupting every snapshot that shares the zone.
    """

    __slots__ = ("columns", "rows", "sealed")

    def __init__(self, num_columns: int):
        self.columns = [ColumnStats() for _ in range(num_columns)]
        self.rows = 0
        self.sealed = False

    def seal(self) -> None:
        self.sealed = True

    def _poisoned(self, action: str) -> None:
        from repro.errors import SanitizerError

        raise SanitizerError(
            "SZ001", f"{action} on a sealed (snapshot-shared) ZoneMap"
        )

    def update_row(self, row: Sequence[Any]) -> None:
        if self.sealed:
            self._poisoned("update_row")
        self.rows += 1
        for stats, value in zip(self.columns, row):
            stats.update(value)

    def merge(self, other: "ZoneMap") -> None:
        if self.sealed:
            self._poisoned("merge")
        self.rows += other.rows
        for mine, theirs in zip(self.columns, other.columns):
            mine.merge(theirs)

    def copy(self) -> "ZoneMap":
        out = ZoneMap(0)
        out.columns = [c.copy() for c in self.columns]
        out.rows = self.rows
        return out

    @classmethod
    def from_rows(cls, num_columns: int, rows: Iterable[Sequence[Any]]) -> "ZoneMap":
        zone = cls(num_columns)
        for row in rows:
            zone.update_row(row)
        return zone

    # ------------------------------------------------------------------

    def may_match(self, predicates: Sequence["PruningPredicate"]) -> bool:
        """Could any row in this zone satisfy *all* predicates?

        Conservative: returns True unless some predicate provably
        excludes every row of the zone.
        """
        if self.rows == 0:
            return False
        for pred in predicates:
            if pred.ordinal >= len(self.columns):
                continue
            if not _column_may_match(self.columns[pred.ordinal], self.rows, pred):
                return False
        return True

    def __repr__(self) -> str:
        return f"ZoneMap(rows={self.rows}, columns={self.columns!r})"


def _column_may_match(stats: ColumnStats, rows: int, pred: "PruningPredicate") -> bool:
    op = pred.op
    if op == "isnull":
        return stats.nulls > 0
    if op == "notnull":
        return stats.nulls < rows
    # Every remaining operator is a comparison: NULLs never match, so a
    # zone of only NULLs can be skipped outright.
    if stats.nulls >= rows:
        return False
    if not stats.valid or stats.min is None:
        return True  # nothing provable; keep the zone
    lo, hi = stats.min, stats.max
    try:
        if op == "eq":
            return lo <= pred.values[0] <= hi
        if op == "in":
            return any(lo <= v <= hi for v in pred.values)
        value = pred.values[0]
        if op == "lt":
            return lo < value
        if op == "le":
            return lo <= value
        if op == "gt":
            return hi > value
        if op == "ge":
            return hi >= value
    except TypeError:
        return True  # predicate literal not comparable to the column
    return True


class PruningMetrics:
    """Counters proving what statistics-driven pruning skipped.

    One instance per :class:`~repro.engine.context.EngineContext`;
    recorded at plan time (pruning decisions are made when the scan
    operator is constructed, which is what makes them EXPLAIN-visible).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.scans = 0  # guarded-by: _lock
        self.partitions_total = 0  # guarded-by: _lock
        self.partitions_pruned = 0  # guarded-by: _lock
        self.partitions_routed = 0  # guarded-by: _lock
        self.batches_total = 0  # guarded-by: _lock
        self.batches_pruned = 0  # guarded-by: _lock
        self.index_rejected = 0  # guarded-by: _lock

    def record_scan(
        self,
        partitions_total: int,
        partitions_pruned: int,
        batches_total: int = 0,
        batches_pruned: int = 0,
        routed: bool = False,
    ) -> None:
        with self._lock:
            self.scans += 1
            self.partitions_total += partitions_total
            self.partitions_pruned += partitions_pruned
            self.batches_total += batches_total
            self.batches_pruned += batches_pruned
            if routed:
                self.partitions_routed += partitions_pruned

    def record_index_rejected(self) -> None:
        """A bitmap-index candidate lost the cost comparison and the
        query took the (already-recorded) pruned-scan or lookup path.
        Counted so EXPLAIN's ``index_rejected`` markers and the metrics
        snapshot agree."""
        with self._lock:
            self.index_rejected += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                name: getattr(self, name)
                for name in (
                    "scans",
                    "partitions_total",
                    "partitions_pruned",
                    "partitions_routed",
                    "batches_total",
                    "batches_pruned",
                    "index_rejected",
                )
            }

    def __repr__(self) -> str:
        return f"PruningMetrics({self.snapshot()})"
