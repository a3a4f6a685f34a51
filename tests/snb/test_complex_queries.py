"""Tests for the complex (multi-hop) SNB queries."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import enable_indexing
from repro.snb import generate, load_indexed, load_vanilla
from repro.snb.complex_queries import (
    COMPLEX_QUERIES,
    cq1_friends_of_friends,
    cq2_friends_recent_messages,
    cq3_top_likers,
)
from repro.sql.session import Session


@pytest.fixture(scope="module")
def world():
    session = Session(
        Config(
            shuffle_partitions=4,
            batch_size_bytes=256 * 1024,
            broadcast_threshold=10_000,
        )
    )
    enable_indexing(session)
    dataset = generate(scale_factor=0.3, seed=31)
    vanilla = load_vanilla(session, dataset)
    indexed = load_indexed(session, dataset)
    yield session, dataset, vanilla, indexed
    session.stop()


def busy_person(dataset):
    degree: dict[int, int] = {}
    for a, _b, _ts in dataset.knows:
        degree[a] = degree.get(a, 0) + 1
    return max(degree, key=degree.get)


class TestEquivalence:
    @pytest.mark.parametrize("name", list(COMPLEX_QUERIES))
    def test_indexed_equals_vanilla(self, world, name):
        _s, dataset, vanilla, indexed = world
        fn, _kind = COMPLEX_QUERIES[name]
        for pid in dataset.person_ids()[::97][:3]:
            expected = [tuple(r) for r in fn(vanilla, pid)]
            actual = [tuple(r) for r in fn(indexed, pid)]
            assert actual == expected, f"{name} diverged for person {pid}"

    @pytest.mark.parametrize("name", list(COMPLEX_QUERIES))
    def test_missing_person_empty(self, world, name):
        _s, _d, vanilla, indexed = world
        fn, _kind = COMPLEX_QUERIES[name]
        assert fn(vanilla, -1) == []
        assert fn(indexed, -1) == []


class TestOracles:
    def test_cq1_excludes_self_and_direct_friends(self, world):
        _s, dataset, _v, indexed = world
        pid = busy_person(dataset)
        direct = {b for a, b, _ts in dataset.knows if a == pid}
        rows = cq1_friends_of_friends(indexed, pid, limit=1000)
        ids = {r["id"] for r in rows}
        assert pid not in ids
        assert not (ids & direct)

    def test_cq1_matches_python_two_hop(self, world):
        _s, dataset, _v, indexed = world
        pid = busy_person(dataset)
        adjacency: dict[int, set[int]] = {}
        for a, b, _ts in dataset.knows:
            adjacency.setdefault(a, set()).add(b)
        direct = adjacency.get(pid, set())
        expected = set()
        for friend in direct:
            expected |= adjacency.get(friend, set())
        expected -= direct | {pid}
        rows = cq1_friends_of_friends(indexed, pid, limit=10_000)
        assert {r["id"] for r in rows} == expected

    def test_cq2_only_friend_messages_ordered(self, world):
        _s, dataset, _v, indexed = world
        pid = busy_person(dataset)
        friends = {b for a, b, _ts in dataset.knows if a == pid}
        rows = cq2_friends_recent_messages(indexed, pid, limit=50)
        assert all(r["author_id"] in friends for r in rows)
        stamps = [r["sent_at"] for r in rows]
        assert stamps == sorted(stamps, reverse=True)

    def test_cq3_counts_match_python(self, world):
        _s, dataset, _v, indexed = world
        pid = busy_person(dataset)
        my_messages = {m[0] for m in dataset.messages if m[1] == pid}
        expected: dict[int, int] = {}
        for fan, message, _ts in dataset.likes:
            if message in my_messages:
                expected[fan] = expected.get(fan, 0) + 1
        rows = cq3_top_likers(indexed, pid, limit=10_000)
        assert {r["fan_id"]: r["num_likes"] for r in rows} == expected


class TestIndexUse:
    def test_cq2_uses_index_operators(self, world):
        _s, dataset, _v, indexed = world
        pid = busy_person(dataset)
        knows = indexed.knows
        plan = knows.filter(
            knows.col("person1_id") == pid
        ).explain()
        assert "IndexLookup" in plan
