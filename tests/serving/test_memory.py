"""Memory governor: budgets, kill-largest policy, accounting."""

from __future__ import annotations

import pytest

from repro.errors import QueryCancelledError
from repro.engine.query import QueryContext
from repro.serving.memory import MemoryGovernor

from tests.serving.conftest import serving_config


def make_governor(**overrides) -> MemoryGovernor:
    return MemoryGovernor(serving_config(**overrides))


class TestAccounting:
    def test_charge_and_unregister_release(self):
        gov = make_governor()
        query = QueryContext.create()
        gov.register(query)
        gov.charge(query, 1000)
        gov.charge(query, 500)
        assert gov.usage(query) == 1500
        assert gov.snapshot()["total_bytes"] == 1500
        gov.unregister(query)
        assert gov.usage(query) == 0
        assert gov.snapshot()["total_bytes"] == 0
        assert gov.snapshot()["charged_bytes"] == 1500  # cumulative

    def test_unregistered_charge_is_ignored(self):
        gov = make_governor()
        query = QueryContext.create()
        gov.charge(query, 10_000_000_000)  # never registered: no effect
        assert gov.snapshot()["total_bytes"] == 0
        assert not query.token.cancelled

    def test_zero_and_negative_charges_are_noops(self):
        gov = make_governor()
        query = QueryContext.create()
        gov.register(query)
        gov.charge(query, 0)
        gov.charge(query, -5)
        assert gov.usage(query) == 0


class TestEnforcement:
    def test_per_query_breach_kills_the_charger(self):
        gov = make_governor(serving_query_memory_bytes=1000)
        query = QueryContext.create()
        gov.register(query)
        with pytest.raises(QueryCancelledError) as exc:
            gov.charge(query, 2000)
        assert exc.value.reason.startswith("memory")
        assert gov.snapshot()["per_query_breaches"] == 1
        assert gov.snapshot()["kills"] == 1

    def test_global_breach_kills_the_largest_query(self):
        gov = make_governor(
            serving_memory_budget_bytes=1000,
            serving_query_memory_bytes=900,
        )
        big = QueryContext.create()
        small = QueryContext.create()
        gov.register(big)
        gov.register(small)
        gov.charge(big, 800)
        # small's charge breaches the *global* budget; big is the
        # largest holder and is cancelled — small survives and keeps
        # its charge.
        gov.charge(small, 300)
        assert big.token.cancelled
        assert big.token.reason.startswith("memory")
        assert not small.token.cancelled
        assert gov.snapshot()["global_breaches"] == 1

    def test_victim_unwind_frees_the_budget(self):
        gov = make_governor(serving_memory_budget_bytes=1000)
        big = QueryContext.create()
        gov.register(big)
        gov.charge(big, 600)
        small = QueryContext.create()
        gov.register(small)
        gov.charge(small, 500)  # breach: big cancelled
        assert big.token.cancelled
        gov.unregister(big)  # the victim unwinds cooperatively
        assert gov.snapshot()["total_bytes"] == 500
        # Headroom restored: further charges fit again.
        gov.charge(small, 400)
        assert not small.token.cancelled
