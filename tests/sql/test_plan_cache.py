"""Plan cache: parameterized reuse, value-sensitive invalidation,
LRU bounds, and MVCC-version keying."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import enable_indexing
from repro.sql.functions import col
from repro.sql.session import Session
from tests.conftest import small_config


@pytest.fixture()
def cached_session():
    s = Session(small_config())
    s.create_dataframe(
        [(i, f"n{i % 5}", i * 1.5) for i in range(100)],
        [("id", "long"), ("name", "string"), ("score", "double")],
    ).create_or_replace_temp_view("t")
    yield s
    s.stop()


def counters(session):
    snapshot = session.ctx.scheduler.metrics.snapshot()
    return snapshot["plan_cache_hits"], snapshot["plan_cache_misses"]


class TestParameterSlots:
    def test_equality_literal_reuses_template(self, cached_session):
        s = cached_session
        assert s.sql("SELECT name FROM t WHERE id = 5").collect_tuples() == [("n0",)]
        assert s.sql("SELECT name FROM t WHERE id = 7").collect_tuples() == [("n2",)]
        assert s.sql("SELECT name FROM t WHERE id = 9").collect_tuples() == [("n4",)]
        assert counters(s) == (2, 1)

    def test_range_literal_reuses_template(self, cached_session):
        s = cached_session
        a = s.sql("SELECT count(*) FROM t WHERE id < 10").collect_tuples()
        b = s.sql("SELECT count(*) FROM t WHERE id < 50").collect_tuples()
        assert (a, b) == ([(10,)], [(50,)])
        assert counters(s) == (1, 1)

    def test_different_shapes_miss(self, cached_session):
        s = cached_session
        s.sql("SELECT name FROM t WHERE id = 5").collect_tuples()
        s.sql("SELECT score FROM t WHERE id = 5").collect_tuples()
        s.sql("SELECT name FROM t WHERE score > 5").collect_tuples()
        assert counters(s) == (0, 3)

    def test_in_list_values_are_baked(self, cached_session):
        """IN lists feed value-sensitive rules (dedupe/collapse), so
        different lists must be different cache entries."""
        s = cached_session
        a = s.sql("SELECT count(*) FROM t WHERE id IN (1, 2, 3)").collect_tuples()
        b = s.sql("SELECT count(*) FROM t WHERE id IN (4, 5)").collect_tuples()
        c = s.sql("SELECT count(*) FROM t WHERE id IN (1, 2, 3)").collect_tuples()
        assert (a, b, c) == ([(3,)], [(2,)], [(3,)])
        hits, misses = counters(s)
        assert misses == 2 and hits == 1

    def test_folded_comparison_demotes_to_exact(self, cached_session):
        """``1 = 1`` folds away: same constant hits, changed constant
        misses (it folds differently), and results stay correct."""
        s = cached_session
        e1 = s.sql("SELECT count(*) FROM t WHERE 1 = 1 AND id < 3").collect_tuples()
        e2 = s.sql("SELECT count(*) FROM t WHERE 1 = 1 AND id < 6").collect_tuples()
        e3 = s.sql("SELECT count(*) FROM t WHERE 1 = 2 AND id < 6").collect_tuples()
        assert (e1, e2, e3) == ([(3,)], [(6,)], [(0,)])
        hits, misses = counters(s)
        assert hits == 1 and misses == 2

    def test_aggregate_shape_reuse(self, cached_session):
        s = cached_session
        q = "SELECT name, count(*) FROM t WHERE score > {v} GROUP BY name"
        x1 = sorted(s.sql(q.format(v=30)).collect_tuples())
        x2 = sorted(s.sql(q.format(v=90)).collect_tuples())
        expected1 = {}
        expected2 = {}
        for i in range(100):
            name = f"n{i % 5}"
            if i * 1.5 > 30:
                expected1[name] = expected1.get(name, 0) + 1
            if i * 1.5 > 90:
                expected2[name] = expected2.get(name, 0) + 1
        assert x1 == sorted(expected1.items())
        assert x2 == sorted(expected2.items())
        assert counters(s) == (1, 1)


class TestLifecycle:
    def test_capacity_zero_disables(self):
        with Session(small_config(plan_cache_size=0)) as s:
            assert s.plan_cache is None
            s.create_dataframe(
                [(1, "a")], [("id", "long"), ("name", "string")]
            ).create_or_replace_temp_view("u")
            assert s.sql("SELECT name FROM u WHERE id = 1").collect_tuples() == [("a",)]
            assert counters(s) == (0, 0)

    def test_lru_eviction(self):
        with Session(small_config(plan_cache_size=2)) as s:
            s.create_dataframe(
                [(1, "a", 2.0)],
                [("id", "long"), ("name", "string"), ("score", "double")],
            ).create_or_replace_temp_view("u")
            shapes = [
                "SELECT name FROM u WHERE id = 1",
                "SELECT score FROM u WHERE id = 1",
                "SELECT id FROM u WHERE score > 0",
            ]
            for text in shapes:
                s.sql(text).collect_tuples()
            assert len(s.plan_cache) == 2
            s.sql(shapes[0]).collect_tuples()  # evicted: miss again
            assert counters(s) == (0, 4)

    def test_explain_goes_through_cache(self, cached_session):
        s = cached_session
        s.sql("SELECT name FROM t WHERE id = 1").explain()
        s.sql("SELECT name FROM t WHERE id = 2").explain()
        assert counters(s) == (1, 1)


class TestIndexedVersions:
    def test_append_invalidates_by_version(self):
        with Session(small_config()) as s:
            enable_indexing(s)
            df = s.create_dataframe(
                [(i, f"n{i}") for i in range(50)],
                [("id", "long"), ("name", "string")],
            )
            idf = df.create_index("id")
            idf.to_df().create_or_replace_temp_view("it")
            assert s.sql("SELECT name FROM it WHERE id = 10").collect_tuples() == [
                ("n10",)
            ]
            assert s.sql("SELECT name FROM it WHERE id = 20").collect_tuples() == [
                ("n20",)
            ]
            hits_before, _ = counters(s)
            assert hits_before >= 1

            extra = s.create_dataframe(
                [(1000, "x0")], [("id", "long"), ("name", "string")]
            )
            idf2 = idf.append_rows(extra)
            idf2.to_df().create_or_replace_temp_view("it")
            # New MVCC version: the stale template must not be replayed.
            assert s.sql("SELECT name FROM it WHERE id = 1000").collect_tuples() == [
                ("x0",)
            ]
            assert s.sql("SELECT name FROM it WHERE id = 10").collect_tuples() == [
                ("n10",)
            ]
            # The old handle still reads the old version.
            assert idf.lookup_latest(1000) is None

    def test_index_path_preserved_on_hit(self):
        with Session(small_config()) as s:
            enable_indexing(s)
            df = s.create_dataframe(
                [(i, f"n{i}") for i in range(50)],
                [("id", "long"), ("name", "string")],
            )
            idf = df.create_index("id")
            idf.to_df().create_or_replace_temp_view("it")
            s.sql("SELECT name FROM it WHERE id = 1").collect_tuples()
            plan_text = s.sql("SELECT name FROM it WHERE id = 2").explain()
            assert "Lookup" in plan_text, plan_text


class TestFullPlanLevel:
    """The second cache level: fully-optimized plans (extensions batch
    included) reused only on an exact (shape, values, version) match."""

    def full_hits(self, session) -> int:
        return session.ctx.scheduler.metrics.snapshot()["plan_cache_full_hits"]

    def test_exact_repeat_skips_the_extensions_batch(self, cached_session):
        s = cached_session
        a = s.sql("SELECT name FROM t WHERE id = 5").collect_tuples()
        b = s.sql("SELECT name FROM t WHERE id = 5").collect_tuples()
        assert a == b == [("n0",)]
        assert self.full_hits(s) == 1
        assert s.plan_cache.full_len() == 1

    def test_changed_literal_misses_full_but_hits_template(self, cached_session):
        s = cached_session
        s.sql("SELECT name FROM t WHERE id = 5").collect_tuples()
        s.sql("SELECT name FROM t WHERE id = 7").collect_tuples()
        assert self.full_hits(s) == 0
        assert counters(s) == (1, 1)  # the template level still reuses

    def test_append_invalidates_full_entries_by_version(self):
        with Session(small_config()) as s:
            enable_indexing(s)
            df = s.create_dataframe(
                [(i, "ab"[i % 2]) for i in range(60)],
                [("id", "long"), ("kind", "string")],
            )
            idf = df.create_index("id").create_index("kind")
            idf.to_df().create_or_replace_temp_view("it")
            q = "SELECT count(*) FROM it WHERE kind = 'a'"
            assert s.sql(q).collect_tuples() == [(30,)]
            assert s.sql(q).collect_tuples() == [(30,)]
            full_before = s.ctx.scheduler.metrics.snapshot()["plan_cache_full_hits"]
            assert full_before == 1

            idf2 = idf.append_rows([(1000, "a"), (1001, "a")])
            idf2.to_df().create_or_replace_temp_view("it")
            # New MVCC version: the baked bitmap-vs-cTrie era must not
            # replay — the query replans and sees the appended rows.
            assert s.sql(q).collect_tuples() == [(32,)]
            after = s.ctx.scheduler.metrics.snapshot()["plan_cache_full_hits"]
            assert after == full_before
            # The new version becomes its own full entry.
            assert s.sql(q).collect_tuples() == [(32,)]
            assert (
                s.ctx.scheduler.metrics.snapshot()["plan_cache_full_hits"]
                == full_before + 1
            )

    def test_clear_drops_both_levels(self, cached_session):
        s = cached_session
        s.sql("SELECT name FROM t WHERE id = 5").collect_tuples()
        assert len(s.plan_cache) == 1 and s.plan_cache.full_len() == 1
        s.plan_cache.clear()
        assert len(s.plan_cache) == 0 and s.plan_cache.full_len() == 0


class TestVersionFreeTemplates:
    """An indexed leaf keys the template level by store, not by version:
    the query after an append reuses the template its predecessor left,
    rebound — leaf by leaf — to the versions the new query reads."""

    SCHEMA = [("id", "long"), ("kind", "string"), ("score", "long")]

    @staticmethod
    def rows(lo, hi):
        return [(i, "abc"[i % 3], i * 2) for i in range(lo, hi)]

    @staticmethod
    def indexed(session, rows):
        enable_indexing(session)
        return session.create_dataframe(rows, TestVersionFreeTemplates.SCHEMA).create_index("id")

    def test_template_hit_rate_across_appends(self):
        with Session(small_config()) as s:
            idf = self.indexed(s, self.rows(0, 40))
            expected = self.rows(0, 40)
            idf.get_rows(1).collect_tuples()  # the one miss that builds the template
            hits0, misses0 = counters(s)
            for cycle in range(50):
                batch = self.rows(1000 + cycle, 1001 + cycle)
                idf = idf.append_rows(batch)
                expected += batch
                assert idf.get_rows(batch[0][0]).collect_tuples() == batch
                assert idf.get_rows(cycle % 40).collect_tuples() == [expected[cycle % 40]]
            hits, misses = counters(s)
            assert (hits - hits0) / (hits - hits0 + misses - misses0) >= 0.9
            assert misses == misses0  # in fact every one of them hit

    def test_differential_against_uncached_session_at_every_version(self):
        shapes = [
            "SELECT kind, score FROM it WHERE id = {a}",
            "SELECT id FROM it WHERE score > {b} AND score <= {c}",
            # IN lists are baked into the key by value: keep this one fixed
            # (its answer still grows as 34, 41 and 50 get appended).
            "SELECT id, kind FROM it WHERE id IN (7, 34, 41, 50)",
            "SELECT kind, count(*), sum(score) AS total FROM it WHERE id > {a} GROUP BY kind",
            "SELECT it.id, p.tag FROM it JOIN p ON it.id = p.pid WHERE p.tag <> 'x{a}'",
        ]
        with Session(small_config()) as cached, Session(small_config(plan_cache_size=0)) as plain:
            handles = []
            for s in (cached, plain):
                handles.append(self.indexed(s, self.rows(0, 30)))
                s.create_dataframe(
                    [(k, f"x{k}") for k in (2, 3, 31, 35, 44)], [("pid", "long"), ("tag", "string")]
                ).create_or_replace_temp_view("p")
            hits0, misses0 = counters(cached)  # the bulk load planned a scan
            for version in range(8):
                lo = 30 + version * 3
                for i, s in enumerate((cached, plain)):
                    handles[i] = handles[i].append_rows(self.rows(lo, lo + 3))
                    handles[i].create_or_replace_temp_view("it")
                for text in shapes:
                    q = text.format(a=version + 2, b=lo, c=lo + 40)
                    assert sorted(cached.sql(q).collect_tuples()) == sorted(
                        plain.sql(q).collect_tuples()
                    ), q
            hits, misses = counters(cached)
            assert misses - misses0 == len(shapes) and hits - hits0 == 7 * len(shapes)
            assert counters(plain) == (0, 0)

    def test_self_join_of_old_and_new_handle_rebinds_positionally(self):
        with Session(small_config()) as s:
            old = self.indexed(s, self.rows(0, 10))
            new = old.append_rows(self.rows(10, 12))

            def pairs(left, right):
                l, r = left.to_df(), right.to_df()
                joined = l.join(r, on=l.col("id") == r.col("id"))
                return sorted((t[0], t[3]) for t in joined.collect_tuples())

            both_new = [(i, i) for i in range(12)]
            # Two templates: a handle joined with itself (the analyzer
            # re-instantiates the shared leaf) and two distinct handles.
            assert pairs(new, new) == both_new
            assert pairs(old, new) == [(i, i) for i in range(10)]
            _, misses = counters(s)
            # Same store on both sides, one shape, one template: each
            # leaf must still read the version of the handle it came from.
            assert pairs(new, old) == [(i, i) for i in range(10)]
            assert pairs(old, old) == [(i, i) for i in range(10)]
            newer = new.append_rows(self.rows(12, 13))
            assert pairs(newer, new) == both_new
            assert pairs(newer, newer) == both_new + [(12, 12)]
            assert counters(s)[1] == misses  # all of them template hits

    def test_attaching_a_bitmap_index_changes_the_template_key(self):
        from repro.sql.plan_cache import fingerprint

        with Session(small_config()) as s:
            idf = self.indexed(s, self.rows(0, 30))
            appended = idf.append_rows(self.rows(30, 31))
            with_bitmap = appended.create_index("kind")

            def key(handle):
                return fingerprint(handle.get_rows(3).analyzed_plan()).key

            assert key(idf) == key(appended)  # a version is not part of the key
            assert key(appended) != key(with_bitmap)  # the index set is
            assert key(with_bitmap) == key(with_bitmap.append_rows(self.rows(31, 32)))
            other_store = self.indexed(s, self.rows(0, 30))
            assert key(idf) != key(other_store)


class TestPlanAsBuilt:
    """The cache keys on the plan as built (tables resolved, nothing
    analyzed): a hit skips the analyzer too, so whatever analysis would
    decide must already be in the key."""

    @pytest.fixture()
    def analyze_calls(self, monkeypatch):
        from repro.sql.analysis import Analyzer

        calls = []
        original = Analyzer.analyze

        def counting(self, plan):
            calls.append(plan)
            return original(self, plan)

        monkeypatch.setattr(Analyzer, "analyze", counting)
        return calls

    def test_template_hit_with_a_new_literal_analyzes_nothing(
        self, cached_session, analyze_calls
    ):
        s = cached_session
        assert s.sql("SELECT name FROM t WHERE id = 5").collect() == [("n0",)]
        assert len(analyze_calls) == 1
        rows = s.sql("SELECT name FROM t WHERE id = 7").collect()
        assert rows == [("n2",)] and rows[0].name == "n2"
        df = s.table("t").filter(col("id") == 3).select("name", "score")
        assert df.collect() == [("n3", 4.5)]
        assert s.table("t").filter(col("id") == 4).select("name", "score").first().score == 6.0
        assert len(analyze_calls) == 2  # one per shape, none per hit
        assert counters(s) == (2, 2)

    def test_frames_differing_only_in_a_column_name_miss(self, cached_session):
        s = cached_session
        t = s.table("t")
        assert t.filter(col("id") > 97).select("name").collect() == [("n3",), ("n4",)]
        assert t.filter(col("score") > 97).select("name").collect() == [
            (f"n{i % 5}",) for i in range(65, 100)
        ]
        assert counters(s) == (0, 2)

    def test_frames_differing_only_in_a_qualifier_miss(self, cached_session):
        from repro.errors import AnalysisError
        from repro.sql.dataframe import DataFrame
        from repro.sql.logical import Relation

        s = cached_session
        base = s.table("t").plan

        def qualified(name):
            attrs = [a.with_qualifier(name) for a in base.output()]
            return DataFrame(s, Relation(base.relation, attrs))

        a = qualified("a").filter(col("a.id") == 5).select("a.name")
        assert a.collect() == [("n0",)]
        b = qualified("b").filter(col("a.id") == 6).select("a.name")
        with pytest.raises(AnalysisError):
            b.collect()

    def test_reregistered_view_misses_and_reads_the_new_rows(self, cached_session):
        s = cached_session
        assert s.sql("SELECT name FROM t WHERE id = 1").collect_tuples() == [("n1",)]
        s.create_dataframe(
            [(1, "fresh", 0.0)], [("id", "long"), ("name", "string"), ("score", "double")]
        ).create_or_replace_temp_view("t")
        assert s.sql("SELECT name FROM t WHERE id = 1").collect_tuples() == [("fresh",)]
        assert counters(s) == (0, 2)

    def test_shape_failing_analysis_raises_every_time_and_is_never_inserted(
        self, cached_session
    ):
        from repro.errors import AnalysisError

        s = cached_session
        s.sql("SELECT name FROM t WHERE id = 1").collect_tuples()
        size = len(s.plan_cache)
        for value in (1, 1, 2):
            with pytest.raises(AnalysisError):
                s.sql(f"SELECT nope FROM t WHERE id = {value}").collect()
            assert len(s.plan_cache) == size

    def test_select_list_literals_key_by_value(self, cached_session):
        """Analysis matches GROUP BY against the select list by value:
        a literal there is never a slot, or this valid shape's entry
        would answer for the invalid one."""
        from repro.errors import AnalysisError

        s = cached_session
        q = "SELECT id > {v} AS f, count(*) AS c FROM t GROUP BY id > 5"
        assert sorted(s.sql(q.format(v=5)).collect_tuples()) == [(False, 6), (True, 94)]
        with pytest.raises(AnalysisError):
            s.sql(q.format(v=6)).collect_tuples()

    def test_join_of_two_instances_of_one_shape_matches_an_uncached_session(self):
        def run(session, lo, hi):
            t = session.table("t")
            left = t.filter(col("id") < lo).select("id", "name")
            right = t.filter(col("id") < hi).select("name", "score")
            joined = left.join(right, on=left.col("name") == right.col("name"))
            return sorted(joined.collect_tuples())

        with Session(small_config()) as cached, Session(small_config(plan_cache_size=0)) as plain:
            for s in (cached, plain):
                s.create_dataframe(
                    [(i, f"n{i % 5}", i * 1.5) for i in range(30)],
                    [("id", "long"), ("name", "string"), ("score", "double")],
                ).create_or_replace_temp_view("t")
            for lo, hi in ((3, 12), (12, 3), (7, 7), (1, 30)):
                assert run(cached, lo, hi) == run(plain, lo, hi), (lo, hi)
            assert counters(cached) == (3, 1)
