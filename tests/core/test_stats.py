"""Zone maps and pruning predicates: correctness of the statistics layer.

The soundness contract under test: ``may_match`` may say True
spuriously, but must never say False for a zone that contains a
matching row — including under appends, MVCC snapshots, and columns
that degrade (mixed types).
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core.partition import IndexedPartition
from repro.core.pointers import PointerLayout
from repro.sql.expressions import (
    And,
    Attribute,
    EqualTo,
    GreaterThanOrEqual,
    In,
    IsNotNull,
    IsNull,
    LessThan,
    Literal,
)
from repro.sql.pruning import PruningPredicate, extract_pruning_predicates
from repro.sql.types import LongType, StringType, StructField, StructType
from repro.stats import ColumnStats, PruningMetrics, ZoneMap

SCHEMA = StructType(
    [
        StructField("key", LongType(), nullable=False),
        StructField("value", StringType()),
    ]
)


def make_partition() -> IndexedPartition:
    layout = PointerLayout.for_geometry(1024, 256)
    # Sealed under REPRO_SANITIZERS=1, like every session's partitions.
    sanitizers = Config().sanitizers_enabled
    return IndexedPartition(SCHEMA, 0, layout, 1024, 256, sanitizers=sanitizers)


class TestColumnStats:
    def test_min_max_nulls(self):
        stats = ColumnStats()
        for v in (5, None, 2, 9, None):
            stats.update(v)
        assert (stats.min, stats.max, stats.nulls) == (2, 9, 2)
        assert stats.valid

    def test_mixed_types_invalidate(self):
        stats = ColumnStats()
        stats.update(5)
        stats.update("five")
        assert not stats.valid
        assert stats.min is None and stats.max is None
        stats.update(1)  # further updates are no-ops, not crashes
        assert not stats.valid

    def test_merge_propagates_invalid(self):
        good, bad = ColumnStats(), ColumnStats()
        good.update(1)
        bad.update(2)
        bad.update("two")
        good.merge(bad)
        assert not good.valid

    def test_merge_widens_range(self):
        a, b = ColumnStats(), ColumnStats()
        a.update(5)
        b.update(1)
        b.update(9)
        a.merge(b)
        assert (a.min, a.max) == (1, 9)


class TestZoneMapMayMatch:
    def zone(self, *values):
        return ZoneMap.from_rows(1, [(v,) for v in values])

    def test_empty_zone_never_matches(self):
        assert not ZoneMap(1).may_match([PruningPredicate(0, "eq", (1,))])

    def test_range_overlap(self):
        zone = self.zone(10, 20, 30)
        assert zone.may_match([PruningPredicate(0, "eq", (20,))])
        assert zone.may_match([PruningPredicate(0, "eq", (15,))])  # spurious ok
        assert not zone.may_match([PruningPredicate(0, "eq", (31,))])
        assert not zone.may_match([PruningPredicate(0, "lt", (10,))])
        assert zone.may_match([PruningPredicate(0, "le", (10,))])
        assert not zone.may_match([PruningPredicate(0, "gt", (30,))])
        assert zone.may_match([PruningPredicate(0, "ge", (30,))])

    def test_in_list(self):
        zone = self.zone(10, 20)
        assert zone.may_match([PruningPredicate(0, "in", (1, 15))])
        assert not zone.may_match([PruningPredicate(0, "in", (1, 2))])

    def test_null_predicates(self):
        no_nulls = self.zone(1, 2)
        with_nulls = self.zone(1, None)
        only_nulls = self.zone(None, None)
        assert not no_nulls.may_match([PruningPredicate(0, "isnull")])
        assert with_nulls.may_match([PruningPredicate(0, "isnull")])
        assert with_nulls.may_match([PruningPredicate(0, "notnull")])
        assert not only_nulls.may_match([PruningPredicate(0, "notnull")])
        # Comparisons never match NULL: an all-NULL zone is skippable.
        assert not only_nulls.may_match([PruningPredicate(0, "eq", (1,))])

    def test_invalid_column_never_prunes(self):
        zone = self.zone(1, "one")
        assert zone.may_match([PruningPredicate(0, "eq", (999,))])

    def test_incomparable_literal_never_prunes(self):
        zone = self.zone(1, 2)
        assert zone.may_match([PruningPredicate(0, "eq", ("x",))])

    def test_conjunction_requires_all(self):
        zone = self.zone(10, 20)
        both = [PruningPredicate(0, "ge", (15,)), PruningPredicate(0, "le", (30,))]
        assert zone.may_match(both)
        assert not zone.may_match(
            [PruningPredicate(0, "ge", (15,)), PruningPredicate(0, "le", (5,))]
        )

    def test_out_of_range_ordinal_ignored(self):
        zone = self.zone(1)
        assert zone.may_match([PruningPredicate(3, "eq", (42,))])

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            PruningPredicate(0, "like", ("x%",))


class TestExtractPruningPredicates:
    def attrs(self):
        return [
            Attribute("a", LongType()),
            Attribute("b", StringType()),
        ]

    def test_comparisons_both_orders(self):
        a, b = self.attrs()
        condition = And(
            GreaterThanOrEqual(a, Literal(5)),  # a >= 5
            LessThan(Literal(3), a),            # 3 < a  →  a > 3
        )
        preds = extract_pruning_predicates(condition, [a, b])
        assert [(p.ordinal, p.op, p.values) for p in preds] == [
            (0, "ge", (5,)),
            (0, "gt", (3,)),
        ]

    def test_in_null_checks_and_unknowns(self):
        a, b = self.attrs()
        condition = And(
            And(In(b, [Literal("x"), Literal("y")]), IsNull(a)),
            And(IsNotNull(b), EqualTo(a, a)),  # attr = attr is not prunable
        )
        preds = extract_pruning_predicates(condition, [a, b])
        assert [(p.ordinal, p.op) for p in preds] == [
            (1, "in"),
            (0, "isnull"),
            (1, "notnull"),
        ]

    def test_null_literal_and_foreign_attr_skipped(self):
        a, b = self.attrs()
        foreign = Attribute("c", LongType())
        condition = And(EqualTo(a, Literal(None)), EqualTo(foreign, Literal(1)))
        assert extract_pruning_predicates(condition, [a, b]) == []

    def test_in_with_null_option_skipped(self):
        a, b = self.attrs()
        condition = In(a, [Literal(1), Literal(None)])
        assert extract_pruning_predicates(condition, [a, b]) == []


class TestPartitionZoneMaps:
    """Zone maps stay correct under appends and MVCC snapshots."""

    def row_key_pred(self, lo: int, hi: int) -> list[PruningPredicate]:
        return [PruningPredicate(0, "ge", (lo,)), PruningPredicate(0, "lt", (hi,))]

    def test_matching_batches_finds_every_row(self):
        partition = make_partition()
        partition.append_many([(i, f"v{i:03d}") for i in range(200)])
        snapshot = partition.snapshot()
        assert len(snapshot.batch_zones) > 1  # geometry produced several batches
        for lo, hi in ((0, 10), (95, 105), (190, 200)):
            matching = snapshot.matching_batches(self.row_key_pred(lo, hi))
            assert matching is not None
            rows = sorted(snapshot.scan(matching))
            wanted = [r for r in sorted(snapshot.scan()) if lo <= r[0] < hi]
            assert [r for r in rows if lo <= r[0] < hi] == wanted
            # and it actually skips the non-overlapping batches
            assert len(matching) < len(snapshot.batch_zones)

    def test_snapshot_isolated_from_later_appends(self):
        partition = make_partition()
        partition.append_many([(i, "old") for i in range(50)])
        old = partition.snapshot()
        old_zone_max = old.zone.columns[0].max
        partition.append_many([(i, "new") for i in range(1000, 1050)])
        new = partition.snapshot()
        # The old snapshot's zones don't see the new rows...
        assert old.zone.columns[0].max == old_zone_max == 49
        assert not old.may_match([PruningPredicate(0, "ge", (1000,))])
        # ...while the new snapshot's do.
        assert new.zone.columns[0].max == 1049
        assert new.may_match([PruningPredicate(0, "ge", (1000,))])
        # And old scans through matching_batches still return old data only.
        matching = old.matching_batches(self.row_key_pred(0, 50))
        assert sorted(snapshotted[0] for snapshotted in old.scan(matching)) == list(
            range(50)
        )

    def test_fine_grained_append_updates_active_zone(self):
        partition = make_partition()
        for i in range(10):
            partition.append((i, "x"))
        snapshot = partition.snapshot()
        assert snapshot.zone.rows == 10
        assert (snapshot.zone.columns[0].min, snapshot.zone.columns[0].max) == (0, 9)

    def test_mixed_type_value_column_degrades_not_breaks(self):
        partition = make_partition()
        partition.append((1, "text"))
        partition.append((2, 42))  # value column becomes incomparable
        snapshot = partition.snapshot()
        assert not snapshot.zone.columns[1].valid
        assert snapshot.may_match([PruningPredicate(1, "eq", ("zzz",))])
        # The key column is unaffected and still prunes.
        assert not snapshot.may_match([PruningPredicate(0, "eq", (99,))])


class TestPruningMetrics:
    def test_record_and_snapshot(self):
        metrics = PruningMetrics()
        metrics.record_scan(partitions_total=4, partitions_pruned=3, routed=True)
        metrics.record_scan(
            partitions_total=4, partitions_pruned=1, batches_total=8, batches_pruned=5
        )
        metrics.record_index_rejected()
        snap = metrics.snapshot()
        assert snap == {
            "scans": 2,
            "partitions_total": 8,
            "partitions_pruned": 4,
            "partitions_routed": 3,
            "batches_total": 8,
            "batches_pruned": 5,
            "index_rejected": 1,
        }
