"""Tests for the EngineContext lifecycle and factories."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.engine.context import EngineContext


class TestFactories:
    def test_parallelize_default_slices(self):
        with EngineContext(Config(default_parallelism=3)) as ctx:
            assert ctx.parallelize(range(9)).num_partitions == 3

    def test_parallelize_explicit_slices(self, ctx):
        rdd = ctx.parallelize(range(10), 4)
        assert rdd.num_partitions == 4
        assert rdd.collect() == list(range(10))

    def test_parallelize_fewer_items_than_slices(self, ctx):
        rdd = ctx.parallelize([1], 8)
        assert rdd.num_partitions == 8
        assert rdd.collect() == [1]

    def test_empty_rdd(self, ctx):
        assert ctx.empty_rdd().collect() == []
        assert ctx.empty_rdd().count() == 0

    def test_broadcast_factory(self, ctx):
        assert ctx.broadcast({"a": 1}).value == {"a": 1}


class TestLifecycle:
    def test_context_manager_stops(self):
        with EngineContext(Config()) as ctx:
            pass
        with pytest.raises(RuntimeError):
            ctx.parallelize([1], 1).collect()

    def test_stop_idempotent(self):
        ctx = EngineContext(Config())
        ctx.stop()
        ctx.stop()

    def test_repr(self):
        ctx = EngineContext(Config())
        assert "in-process" in repr(ctx)
        assert "running" in repr(ctx)
        ctx.stop()
        assert "stopped" in repr(ctx)

    def test_independent_contexts_do_not_share_cache(self):
        a = EngineContext(Config())
        b = EngineContext(Config())
        try:
            rdd = a.parallelize(range(10), 2).cache()
            rdd.count()
            assert len(a.block_manager) > 0
            assert len(b.block_manager) == 0
        finally:
            a.stop()
            b.stop()
