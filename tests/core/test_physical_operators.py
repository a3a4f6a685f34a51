"""Direct unit tests for the indexed physical operators."""

from __future__ import annotations

import pytest

from repro.core import create_index
from repro.core.physical import IndexedScanExec, IndexLookupExec
from repro.core.relation import IndexedRelation

SCHEMA = [("id", "long"), ("tag", "string")]


@pytest.fixture()
def world(indexed_session):
    df = indexed_session.create_dataframe(
        [(i, f"t{i % 3}") for i in range(60)], SCHEMA
    )
    indexed = create_index(df, "id")
    relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
    return indexed_session, indexed, relation


class TestIndexedScanExec:
    def test_full_scan(self, world):
        session, indexed, relation = world
        scan = IndexedScanExec(session.ctx, indexed.version, relation.output())
        rows = scan.execute().collect()
        assert sorted(r[0] for r in rows) == list(range(60))

    def test_pruned_scan(self, world):
        session, indexed, relation = world
        scan = IndexedScanExec(
            session.ctx, indexed.version, [relation.output()[1]], columns=[1]
        )
        assert set(scan.execute().collect()) == {("t0",), ("t1",), ("t2",)}

    def test_describe_mentions_version(self, world):
        session, indexed, relation = world
        scan = IndexedScanExec(session.ctx, indexed.version, relation.output())
        assert f"version={indexed.version_id}" in scan.describe()

    def test_scan_pinned_to_version(self, world):
        session, indexed, relation = world
        scan = IndexedScanExec(session.ctx, indexed.version, relation.output())
        indexed.append_rows([(999, "late")])
        assert len(scan.execute().collect()) == 60  # does not see the append


class TestIndexLookupExec:
    def test_lookup_keys(self, world):
        session, indexed, relation = world
        lookup = IndexLookupExec(
            session.ctx, indexed.version, [3, 7, 99999], relation.output()
        )
        assert sorted(r[0] for r in lookup.execute().collect()) == [3, 7]

    def test_describe_shows_keys(self, world):
        session, indexed, relation = world
        lookup = IndexLookupExec(session.ctx, indexed.version, [5], relation.output())
        assert "[5]" in lookup.describe()

    def test_multi_version_chains_returned(self, indexed_session):
        df = indexed_session.create_dataframe([(1, "old")], SCHEMA)
        indexed = create_index(df, "id").append_rows([(1, "new")])
        relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
        lookup = IndexLookupExec(
            indexed_session.ctx, indexed.version, [1], relation.output()
        )
        rows = lookup.execute().collect()
        assert [r[1] for r in rows] == ["new", "old"]
