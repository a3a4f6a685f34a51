"""Tests for broadcast variables."""

from __future__ import annotations


class TestBroadcast:
    def test_value_shared_with_tasks(self, ctx):
        table = ctx.broadcast({1: "one", 2: "two"})
        rdd = ctx.parallelize([1, 2, 1], 2).map(lambda k: table.value[k])
        assert rdd.collect() == ["one", "two", "one"]

    def test_ids_unique(self, ctx):
        assert ctx.broadcast(1).broadcast_id != ctx.broadcast(1).broadcast_id
