"""Plan-time pruning: zone maps on scans, routing, and the IN-list rule.

Every test asserts two things at once: the plan *marker* (EXPLAIN shows
what was skipped) and the *results* (pruning never changes answers —
the filter above the scan re-checks surviving rows).
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql.expressions import EqualTo, In, Literal
from repro.sql.functions import col
from repro.sql.logical import Filter
from repro.sql.session import Session
from tests.conftest import small_config


def find_filters(plan):
    out = [plan] if isinstance(plan, Filter) else []
    for child in plan.children:
        out.extend(find_filters(child))
    return out


@pytest.fixture()
def tiny_batch_session():
    """Indexed session whose geometry yields several batches per
    partition, so per-batch zone maps have something to skip."""
    session = Session(
        small_config(batch_size_bytes=1024, max_row_bytes=256, shuffle_partitions=4)
    )
    enable_indexing(session)
    yield session
    session.stop()


class TestVanillaScanPruning:
    """Partition-level zones on row/columnar relations."""

    def rows(self, n=100):
        return [(i, f"name_{i:04d}") for i in range(n)]

    def test_range_filter_prunes_partitions(self, session):
        df = session.create_dataframe(
            self.rows(), [("id", "long"), ("name", "string")]
        )
        before = session.ctx.pruning_metrics.snapshot()
        query = df.filter(col("id") < 10)
        result = sorted(t[0] for t in query.collect_tuples())
        assert result == list(range(10))
        # default_parallelism=2 → rows split in order → the second
        # partition's zone is [50, 99] and provably cannot match.
        assert "zone_pruned=1/2" in query.last_execution_plan()
        after = session.ctx.pruning_metrics.snapshot()
        assert after["partitions_pruned"] > before["partitions_pruned"]

    def test_unprunable_filter_keeps_all(self, session):
        df = session.create_dataframe(
            self.rows(), [("id", "long"), ("name", "string")]
        )
        query = df.filter(col("id") % 2 == 0)
        assert len(query.collect_tuples()) == 50
        assert "zone_pruned" not in query.last_execution_plan()

    def test_nulls_survive_pruning(self, session):
        df = session.create_dataframe(
            [(1, "a"), (None, "b"), (50, "c"), (None, "d")],
            [("id", "long"), ("name", "string")],
        )
        assert df.filter(col("id").is_null()).count() == 2
        assert df.filter(col("id").is_not_null()).count() == 2
        assert df.filter(col("id") > 10).count() == 1


class TestIndexedScanPruning:
    """Batch-level zones + hash routing on the indexed storage."""

    def test_range_filter_skips_batches(self, tiny_batch_session):
        session = tiny_batch_session
        df = session.create_dataframe(
            [(i, f"name_{i:04d}") for i in range(500)],
            [("id", "long"), ("name", "string")],
        )
        indexed = create_index(df, "id")
        before = session.ctx.pruning_metrics.snapshot()
        query = indexed.to_df().filter((col("id") >= 100) & (col("id") < 120))
        got = sorted(t[0] for t in query.collect_tuples())
        assert got == list(range(100, 120))
        assert "batches_pruned=" in query.last_execution_plan()
        after = session.ctx.pruning_metrics.snapshot()
        assert after["batches_pruned"] > before["batches_pruned"]

    def test_old_snapshot_prunes_independently(self, tiny_batch_session):
        session = tiny_batch_session
        df = session.create_dataframe(
            [(i, "old") for i in range(200)], [("id", "long"), ("tag", "string")]
        )
        v0 = create_index(df, "id")
        v1 = v0.append_rows([(i, "new") for i in range(1000, 1200)])
        low = (col("id") >= 0) & (col("id") < 50)
        high = (col("id") >= 1000) & (col("id") < 1050)
        # The old handle never sees the appended range...
        assert v0.to_df().filter(high).count() == 0
        assert v0.to_df().filter(low).count() == 50
        # ...the new handle sees both, through its own zones.
        assert v1.to_df().filter(high).count() == 50
        assert v1.to_df().filter(low).count() == 50

    def test_key_routing_marker(self, tiny_batch_session):
        """Equality on the partitioning column routes to its hash
        partitions (exercised at the exec level: the optimizer rewrites
        top-level key lookups to IndexLookup, so routing is the net for
        shapes that rewrite misses)."""
        from repro.core.physical import IndexedScanExec

        session = tiny_batch_session
        df = session.create_dataframe(
            [(i, f"n{i}") for i in range(100)], [("id", "long"), ("name", "string")]
        )
        indexed = create_index(df, "id")
        relation_df = indexed.to_df()
        attrs = relation_df.analyzed_plan().output()
        scan = IndexedScanExec(session.ctx, indexed.version, attrs)
        scan.apply_pruning(In(attrs[0], [Literal(7)]))
        assert scan._routed
        described = scan.describe()
        assert "key_routed=" in described
        rows = session.ctx.run_job(scan.execute(), list)
        assert [t for part in rows for t in part if t[0] == 7] == [(7, "n7")]


class TestSimplifyInLists:
    def optimized_filter(self, session, df):
        optimized = session.optimizer.optimize(df.analyzed_plan())
        filters = find_filters(optimized)
        assert filters, optimized.pretty()
        return filters[0].condition

    def test_duplicate_options_deduped(self, session):
        df = session.create_dataframe([(i,) for i in range(10)], [("id", "long")])
        query = df.filter(col("id").isin(3, 7, 3, 7, 3))
        condition = self.optimized_filter(session, query)
        assert isinstance(condition, In)
        assert len(condition.options) == 2
        assert sorted(t[0] for t in query.collect_tuples()) == [3, 7]

    def test_single_option_becomes_equality(self, session):
        df = session.create_dataframe([(i,) for i in range(10)], [("id", "long")])
        query = df.filter(col("id").isin(4, 4, 4))
        condition = self.optimized_filter(session, query)
        assert isinstance(condition, EqualTo)
        assert [t[0] for t in query.collect_tuples()] == [4]

    def test_unhashable_options_left_alone(self, session):
        df = session.create_dataframe([(i,) for i in range(10)], [("id", "long")])
        query = df.filter(col("id").isin(1, 2))
        condition = self.optimized_filter(session, query)
        assert isinstance(condition, In) and len(condition.options) == 2


class TestLookupMany:
    def test_matches_planned_in_list(self, indexed_session):
        session = indexed_session
        df = session.create_dataframe(
            [(i, f"name_{i}") for i in range(200)],
            [("id", "long"), ("name", "string")],
        )
        indexed = create_index(df, "id")
        keys = [3, 50, 50, 199, 777, None]  # dupes, a miss, and a NULL
        got = sorted(indexed.lookup_many(keys))
        planned = sorted(
            indexed.to_df().filter(col("id").isin(3, 50, 199, 777)).collect_tuples()
        )
        assert got == planned == [(3, "name_3"), (50, "name_50"), (199, "name_199")]

    def test_matches_python_rows(self, indexed_session):
        df = indexed_session.create_dataframe(
            [(i, i * 2) for i in range(50)], [("id", "long"), ("v", "long")]
        )
        indexed = create_index(df, "id")
        assert sorted(indexed.lookup_many([1, 2, 3])) == [(1, 2), (2, 4), (3, 6)]
