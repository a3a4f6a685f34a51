"""Tests for SNB loading into vanilla / indexed contexts."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import enable_indexing
from repro.snb import generate, load_indexed, load_vanilla, update_stream
from repro.sql.session import Session


@pytest.fixture(scope="module")
def world():
    session = Session(
        Config(
            shuffle_partitions=4,
            default_parallelism=2,
            batch_size_bytes=256 * 1024,
        )
    )
    enable_indexing(session)
    dataset = generate(scale_factor=0.2, seed=21)
    yield session, dataset
    session.stop()


class TestLoadVanilla:
    def test_tables_cached_and_complete(self, world):
        session, dataset = world
        ctx = load_vanilla(session, dataset)
        assert not ctx.indexed
        assert ctx.person.is_cached
        assert ctx.person.count() == len(dataset.persons)
        assert ctx.knows.count() == len(dataset.knows)
        assert ctx.message_by_id.count() == len(dataset.messages)
        # all three message views are the SAME cached frame
        assert ctx.message_by_creator is ctx.message_by_id is ctx.message_by_reply


class TestLoadIndexed:
    def test_indexes_built_with_right_keys(self, world):
        session, dataset = world
        ctx = load_indexed(session, dataset)
        assert ctx.indexed
        assert ctx.person_idx.key_column == "id"
        assert ctx.knows_idx.key_column == "person1_id"
        assert ctx.message_by_creator_idx.key_column == "creator_id"
        assert ctx.message_by_id_idx.key_column == "id"
        assert ctx.message_by_reply_idx.key_column == "reply_of_id"
        assert ctx.person_idx.count() == len(dataset.persons)

    def test_forum_tables_never_indexed(self, world):
        session, dataset = world
        ctx = load_indexed(session, dataset)
        assert "IndexedScan" not in ctx.forum.explain()
        assert "IndexedScan" not in ctx.likes.explain()


class TestWithAppended:
    def test_indexed_append_creates_new_versions(self, world):
        session, dataset = world
        ctx = load_indexed(session, dataset)
        batch = next(iter(update_stream(dataset, 1, 60)))
        fresh = ctx.with_appended(
            persons=batch.persons, knows=batch.knows, messages=batch.messages
        )
        assert fresh.person_idx.count() == ctx.person_idx.count() + len(batch.persons)
        assert fresh.knows_idx.count() == ctx.knows_idx.count() + len(batch.knows)
        # all three message indexes advanced together
        assert (
            fresh.message_by_id_idx.count()
            == fresh.message_by_creator_idx.count()
            == fresh.message_by_reply_idx.count()
            == ctx.message_by_id_idx.count() + len(batch.messages)
        )
        # the old context is frozen at its version
        assert ctx.person_idx.count() == len(dataset.persons)

    def test_vanilla_append_rebuilds_cache(self, world):
        session, dataset = world
        ctx = load_vanilla(session, dataset)
        batch = next(iter(update_stream(dataset, 1, 60)))
        fresh = ctx.with_appended(
            persons=batch.persons, knows=batch.knows, messages=batch.messages
        )
        assert fresh.person.count() == ctx.person.count() + len(batch.persons)
        assert fresh.person is not ctx.person  # a re-cached frame

    def test_empty_batch_is_noop_shape(self, world):
        session, dataset = world
        ctx = load_indexed(session, dataset)
        fresh = ctx.with_appended()
        assert fresh.person_idx.count() == ctx.person_idx.count()
