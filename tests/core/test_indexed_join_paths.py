"""Both IndexedJoin dispatch paths must agree (paper §2's broadcast
fallback vs the shuffle path)."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql.session import Session

SCHEMA = [("id", "long"), ("grp", "long"), ("name", "string")]
PROBE_SCHEMA = [("pid", "long"), ("w", "long")]


def build_world(broadcast_threshold: int):
    session = Session(
        Config(
            shuffle_partitions=4,
            broadcast_threshold=broadcast_threshold,
            batch_size_bytes=64 * 1024,
        )
    )
    enable_indexing(session)
    build = session.create_dataframe(
        [(i % 60, i % 7, f"n{i}") for i in range(240)], SCHEMA  # 4 rows per key
    )
    probe = session.create_dataframe(
        [(i % 80, i) for i in range(120)], PROBE_SCHEMA
    )
    return session, create_index(build, "id"), probe


class TestDispatchAgreement:
    def test_broadcast_and_shuffle_paths_identical(self):
        results = []
        for threshold in (1, 10_000):  # force shuffle, then broadcast
            session, indexed, probe = build_world(threshold)
            try:
                joined = indexed.join(
                    probe, on=indexed.col("id") == probe.col("pid")
                )
                assert "IndexedJoin" in joined.explain()
                results.append(sorted(map(tuple, joined.collect())))
            finally:
                session.stop()
        assert results[0] == results[1]
        assert len(results[0]) > 0

    def test_broadcast_dispatch_boundary(self):
        """The join switches mode exactly at the threshold: a probe of
        ``broadcast_threshold`` rows streams into the index (no shuffle
        stage), one more row shuffles (ablation A5)."""
        threshold = 50
        session, indexed, _probe = build_world(threshold)
        metrics = session.ctx.scheduler.metrics
        try:
            stages = {}
            for size in (threshold, threshold + 1):
                probe = session.create_dataframe(
                    [(i, i) for i in range(size)], PROBE_SCHEMA
                ).cache()
                joined = indexed.join(probe, on=indexed.col("id") == probe.col("pid"))
                plan = joined.explain()
                assert "IndexedJoin[" in plan and f"probe_est={size}]" in plan
                before = metrics.snapshot()["stages"]
                assert joined.count() == 4 * size  # 4 build rows per key
                stages[size] = metrics.snapshot()["stages"] - before
            assert stages[threshold + 1] == stages[threshold] + 1
        finally:
            session.stop()

    def test_duplicate_build_keys_multiply(self):
        session, indexed, _probe = build_world(10_000)
        try:
            single = session.create_dataframe([(5, 1)], PROBE_SCHEMA)
            joined = indexed.join(single, on=indexed.col("id") == single.col("pid"))
            assert joined.count() == 4  # 4 build rows share key 5
        finally:
            session.stop()

    def test_null_probe_keys_never_match(self):
        session, indexed, _probe = build_world(10_000)
        try:
            probe = session.create_dataframe(
                [(None, 1), (5, 2)], PROBE_SCHEMA
            )
            joined = indexed.join(probe, on=indexed.col("id") == probe.col("pid"))
            assert joined.count() == 4
        finally:
            session.stop()

    def test_estimates_use_chain_statistics(self):
        session, indexed, _probe = build_world(10_000)
        try:
            from repro.core.relation import IndexedRelation
            from repro.core.rules import IndexLookup

            relation = IndexedRelation(indexed.schema, indexed.key_ordinal, indexed.version)
            lookup = IndexLookup(relation, [1, 2, 3])
            # 240 rows over 60 distinct keys → chain length 4.
            assert lookup.estimated_rows() == 12
        finally:
            session.stop()
