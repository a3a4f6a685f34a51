"""SNB short reads: correctness on both paths + oracle checks."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import enable_indexing
from repro.snb import (
    ALL_QUERIES,
    generate,
    load_indexed,
    load_vanilla,
    run_query,
    sq1,
    sq2,
    sq3,
    sq4,
    sq5,
    sq6,
    sq7,
)
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
    dataset = generate(scale_factor=0.3, seed=5)
    vanilla = load_vanilla(session, dataset)
    indexed = load_indexed(session, dataset)
    yield session, dataset, vanilla, indexed
    session.stop()


def busiest_person(dataset):
    counts: dict[int, int] = {}
    for m in dataset.messages:
        counts[m[1]] = counts.get(m[1], 0) + 1
    return max(counts, key=counts.get)


class TestEquivalence:
    """The paper's core correctness property: both systems agree."""

    @pytest.mark.parametrize("name", list(ALL_QUERIES))
    def test_indexed_equals_vanilla(self, world, name):
        _session, dataset, vanilla, indexed = world
        kind = ALL_QUERIES[name][1]
        params = (
            dataset.person_ids()[::101] if kind == "person"
            else dataset.message_ids()[::397]
        )
        for param in params[:3]:
            expected = sorted(map(tuple, run_query(vanilla, name, param)))
            actual = sorted(map(tuple, run_query(indexed, name, param)))
            assert actual == expected, f"{name} diverged for parameter {param}"

    @pytest.mark.parametrize("name", list(ALL_QUERIES))
    def test_missing_parameter_yields_empty(self, world, name):
        _session, _dataset, vanilla, indexed = world
        assert run_query(vanilla, name, -1) == []
        assert run_query(indexed, name, -1) == []


class TestOracles:
    """Spot-check query semantics against plain-Python computation."""

    def test_sq1_profile(self, world):
        _s, dataset, _v, indexed = world
        person = dataset.persons[10]
        row = sq1(indexed, person[0])[0]
        assert row["first_name"] == person[1]
        assert row["last_name"] == person[2]
        assert row["city_id"] == person[8]

    def test_sq2_recent_messages(self, world):
        _s, dataset, _v, indexed = world
        pid = busiest_person(dataset)
        rows = sq2(indexed, pid, limit=5)
        mine = sorted(
            (m for m in dataset.messages if m[1] == pid),
            key=lambda m: (m[2], m[0]),
            reverse=True,
        )
        assert [r["id"] for r in rows] == [m[0] for m in mine[:5]]

    def test_sq3_friends(self, world):
        _s, dataset, _v, indexed = world
        pid = dataset.knows[0][0]
        rows = sq3(indexed, pid)
        expected_friends = {b for a, b, _ts in dataset.knows if a == pid}
        assert {r["friend_id"] for r in rows} == expected_friends
        dates = [r["friendship_date"] for r in rows]
        assert dates == sorted(dates, reverse=True)

    def test_sq4_content(self, world):
        _s, dataset, _v, indexed = world
        message = dataset.messages[17]
        row = sq4(indexed, message[0])[0]
        assert row["content"] == message[3]
        assert row["creation_date"] == message[2]

    def test_sq5_fans(self, world):
        _s, dataset, _v, indexed = world
        liked: dict[int, int] = {}
        for _p, m, _ts in dataset.likes:
            liked[m] = liked.get(m, 0) + 1
        mid = max(liked, key=liked.get)
        rows = sq5(indexed, mid)
        expected_fans = {p for p, m, _ts in dataset.likes if m == mid}
        assert {r["fan_id"] for r in rows} == expected_fans

    def test_sq6_forum(self, world):
        _s, dataset, _v, indexed = world
        post = next(m for m in dataset.messages if m[5])
        rows = sq6(indexed, post[0])
        assert len(rows) == 1
        forum = next(f for f in dataset.forums if f[0] == post[6])
        assert rows[0]["title"] == forum[1]
        members = sum(1 for fm in dataset.forum_members if fm[0] == forum[0])
        assert rows[0]["num_members"] == members

    def test_sq6_on_comment_is_empty(self, world):
        _s, dataset, _v, indexed = world
        comment = next((m for m in dataset.messages if not m[5]), None)
        if comment is None:
            pytest.skip("dataset has no comments")
        assert sq6(indexed, comment[0]) == []

    def test_sq7_replies(self, world):
        _s, dataset, _v, indexed = world
        reply_counts: dict[int, int] = {}
        for m in dataset.messages:
            if m[7] is not None:
                reply_counts[m[7]] = reply_counts.get(m[7], 0) + 1
        if not reply_counts:
            pytest.skip("dataset has no replies")
        mid = max(reply_counts, key=reply_counts.get)
        rows = sq7(indexed, mid)
        assert len(rows) == reply_counts[mid]
        expected = {m[0] for m in dataset.messages if m[7] == mid}
        assert {r["reply_id"] for r in rows} == expected


class TestIndexUsage:
    def test_indexed_queries_use_index_operators(self, world):
        _s, dataset, _v, indexed = world
        from repro.sql.functions import col

        plan = (
            indexed.person.filter(col("id") == dataset.person_ids()[0]).explain()
        )
        assert "IndexLookup" in plan

    def test_sq5_does_not_use_index_on_likes(self, world):
        """The likes scan dominates SQ5 and has no index (the paper's
        'Q5 cannot make use of the index')."""
        _s, _dataset, _v, indexed = world
        assert not indexed.likes.explain().count("IndexedScan")


class TestUpdatesVisibleToQueries:
    def test_appended_message_appears_in_sq2(self, world):
        session, dataset, _v, indexed = world
        pid = dataset.person_ids()[0]
        new_message_id = max(dataset.message_ids()) + 777
        fresh = indexed.with_appended(
            messages=[
                (
                    new_message_id,
                    pid,
                    99_999_999_999_999,
                    "hot off the stream",
                    18,
                    True,
                    dataset.forums[0][0],
                    None,
                    "1.2.3.4",
                    "Firefox",
                )
            ]
        )
        rows = sq2(fresh, pid, limit=1)
        assert rows[0]["id"] == new_message_id
        # The old context still answers from its version.
        old_rows = sq2(indexed, pid, limit=1)
        assert not old_rows or old_rows[0]["id"] != new_message_id
