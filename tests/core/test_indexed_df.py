"""Tests for the IndexedDataFrame public API (paper Listing 1)."""

from __future__ import annotations

import math

import pytest

from repro.core import create_index, enable_indexing
from repro.ctrie import atomic
from repro.errors import IndexError_, SchemaError
from repro.sql.functions import col
from repro.sql.session import Session
from tests.conftest import small_config

SCHEMA = [("id", "long"), ("name", "string"), ("age", "long")]


@pytest.fixture()
def base_df(indexed_session):
    return indexed_session.create_dataframe(
        [(i, f"name{i}", 20 + i % 5) for i in range(100)], SCHEMA
    )


@pytest.fixture()
def indexed(base_df):
    return create_index(base_df, "id")


class TestCreateIndex:
    def test_by_name_and_ordinal(self, base_df):
        assert create_index(base_df, "id").key_column == "id"
        assert create_index(base_df, 0).key_column == "id"
        assert create_index(base_df, 2).key_column == "age"

    def test_bad_column(self, base_df):
        with pytest.raises(SchemaError):
            create_index(base_df, "missing")
        with pytest.raises(IndexError_):
            create_index(base_df, 17)

    def test_loads_all_rows(self, indexed):
        assert indexed.count() == 100
        assert sorted(r[0] for r in indexed.scan_tuples()) == list(range(100))

    def test_hash_partitioned_on_key(self, indexed):
        from repro.engine.partitioner import HashPartitioner

        partitioner = HashPartitioner(indexed.num_partitions)
        for p, snapshot in enumerate(indexed.version.snapshots):
            for key in snapshot.keys():
                assert partitioner.partition(key) == p

    def test_monkeypatched_method(self, base_df):
        # enable_indexing adds DataFrame.create_index (implicit-conversion
        # analogue of the paper's Scala API).
        indexed = base_df.create_index("id")
        assert indexed.count() == 100

    def test_cache_is_identity(self, indexed):
        assert indexed.cache() is indexed


class TestGetRows:
    def test_planner_path(self, indexed):
        rows = indexed.get_rows(42).collect()
        assert len(rows) == 1 and rows[0]["name"] == "name42"

    def test_planner_path_uses_index(self, indexed):
        assert "IndexLookup" in indexed.get_rows(42).explain()

    def test_local_path(self, indexed):
        assert indexed.get_rows_local(42) == [(42, "name42", 22)]
        assert indexed.get_rows_local(-1) == []
        assert indexed.get_rows_local(None) == []

    def test_lookup_latest(self, indexed):
        assert indexed.lookup_latest(10) == (10, "name10", 20)
        assert indexed.lookup_latest(12345) is None

    def test_duplicate_keys_all_returned(self, indexed_session):
        df = indexed_session.create_dataframe(
            [(1, "a", 1), (1, "b", 2), (2, "c", 3)], SCHEMA
        )
        indexed = create_index(df, "id")
        rows = indexed.get_rows(1).collect()
        assert sorted(r["name"] for r in rows) == ["a", "b"]


class TestAppendRows:
    def test_append_dataframe(self, indexed, indexed_session):
        more = indexed_session.create_dataframe([(100, "new", 50)], SCHEMA)
        v2 = indexed.append_rows(more)
        assert v2.count() == 101
        assert v2.lookup_latest(100) == (100, "new", 50)

    def test_append_tuples_fine_grained(self, indexed):
        v2 = indexed.append_rows([(200, "tuple", 1)])
        assert v2.lookup_latest(200) == (200, "tuple", 1)

    def test_mvcc_old_version_stable(self, indexed):
        v2 = indexed.append_rows([(42, "updated", 99)])
        # New version sees both rows for key 42, newest first.
        assert [r[1] for r in v2.get_rows_local(42)] == ["updated", "name42"]
        # The old handle still sees exactly the original row.
        assert [r[1] for r in indexed.get_rows_local(42)] == ["name42"]
        assert indexed.count() == 100 and v2.count() == 101

    def test_version_ids_increase(self, indexed):
        v2 = indexed.append_rows([(300, "x", 1)])
        v3 = v2.append_rows([(301, "y", 1)])
        assert indexed.version_id < v2.version_id < v3.version_id

    def test_schema_mismatch_rejected(self, indexed, indexed_session):
        wrong = indexed_session.create_dataframe([(1.5,)], [("x", "double")])
        with pytest.raises(SchemaError):
            indexed.append_rows(wrong)

    def test_invalid_tuple_rejected(self, indexed):
        with pytest.raises(SchemaError):
            indexed.append_rows([("not-an-id", "x", 1)])

    def test_appends_shared_across_handles(self, indexed):
        # Two appends from different handles both land in shared storage.
        v2 = indexed.append_rows([(500, "a", 1)])
        v3 = indexed.append_rows([(501, "b", 1)])  # from the OLD handle
        assert v3.lookup_latest(500) == (500, "a", 1)
        assert v3.lookup_latest(501) == (501, "b", 1)


class TestDataFrameInterop:
    def test_to_df_composes(self, indexed):
        result = (
            indexed.to_df()
            .filter(col("age") == 22)
            .select("name")
            .order_by("name")
            .collect()
        )
        assert len(result) == 20

    def test_collect_and_take(self, indexed):
        assert len(indexed.collect()) == 100
        assert len(indexed.take(5)) == 5

    def test_temp_view_sql(self, indexed, indexed_session):
        indexed.create_or_replace_temp_view("idx")
        row = indexed_session.sql("SELECT name FROM idx WHERE id = 7").collect()[0]
        assert row["name"] == "name7"

    def test_keys_iterates_distinct(self, indexed):
        assert sorted(indexed.keys()) == list(range(100))

    def test_memory_stats_aggregate(self, indexed):
        stats = indexed.memory_stats()
        assert stats["rows"] == 100
        assert stats["index_entries"] == 100

    def test_show_runs(self, indexed, capsys):
        indexed.show(3)
        assert "name" in capsys.readouterr().out

    def test_repr(self, indexed):
        text = repr(indexed)
        assert "key=id" in text and "rows=100" in text


class TestPaperClaims:
    """The title's latency claim and §1's "relatively low memory
    overhead", asserted on counts and bytes rather than wall time
    (they are ablations A2 and A4)."""

    SIZES = (1_000, 50_000)

    @pytest.fixture(scope="class")
    def tables(self):
        session = Session(small_config())
        enable_indexing(session)
        built = {
            size: create_index(
                session.create_dataframe(
                    [(i, f"user{i}", i % 100) for i in range(size)],
                    [("id", "long"), ("name", "string"), ("grp", "long")],
                    validate=False,
                ),
                "id",
            )
            for size in self.SIZES
        }
        yield built
        session.stop()

    def test_lookup_is_sublinear(self, tables):
        """Trie nodes read per ``get_rows_local`` grow with log32 of the
        table, not with the table."""

        def nodes_read(indexed, size: int) -> float:
            keys = range(0, size, size // 100)
            reads = []
            atomic.install_yield_hook(reads.append)
            try:
                for key in keys:
                    assert [row[0] for row in indexed.get_rows_local(key)] == [key]
            finally:
                atomic.clear_yield_hook()
            return len(reads) / len(keys)

        small, large = self.SIZES
        growth = nodes_read(tables[large], large) - nodes_read(tables[small], small)
        assert growth <= math.log(large / small, 32) + 1, (
            f"a lookup reads {growth:.2f} more nodes for {large // small}x more data"
        )

    def test_memory_accounting(self, tables):
        stats = tables[self.SIZES[-1]].memory_stats()
        raw = stats["data_bytes"] - stats["header_bytes"]
        overhead_ratio = (stats["header_bytes"] + stats["index_bytes"]) / raw
        # The index + backward pointers must not dwarf the data itself
        # (Python dict/trie overheads make this looser than the JVM
        # original).
        assert overhead_ratio < 4.0
