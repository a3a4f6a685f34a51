"""Gray-failure draws: the cluster sites' keyed hashes must replay
bit-identically, and only a first attempt may fire."""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultInjector,
    FaultProfile,
    gray_failure_schedule,
    keyed_uniform,
)

GRAY_SITES = ("cluster.hang", "cluster.delay", "cluster.drop", "cluster.heartbeat_miss")


class TestKeyedUniform:
    def test_deterministic(self):
        a = keyed_uniform(7, "cluster.hang", 3, 0, 0)
        b = keyed_uniform(7, "cluster.hang", 3, 0, 0)
        assert a == b

    def test_in_unit_interval(self):
        for split in range(50):
            u = keyed_uniform(1, "cluster.drop", split, 0, 0)
            assert 0.0 <= u < 1.0

    def test_keys_independent(self):
        draws = {
            keyed_uniform(seed, site, split, attempt, n)
            for seed in (1, 2)
            for site in ("cluster.hang", "cluster.delay")
            for split in (0, 1)
            for attempt in (0, 1)
            for n in (0, 1)
        }
        # 32 distinct keys: a collision would mean the hash ignores a
        # component and two events share a draw.
        assert len(draws) == 32


class TestGrayFailureDraws:
    def test_probability_one_fires_on_first_attempt(self):
        injector = FaultInjector(FaultProfile(seed=1, cluster_hang_p=1.0))
        assert injector.should_fire("cluster.hang", 0, 0)

    def test_probability_zero_never_fires(self):
        injector = FaultInjector(FaultProfile(seed=1))
        assert not any(
            injector.should_fire(site, split, 0)
            for site in GRAY_SITES
            for split in range(20)
        )

    def test_attempt_cap_guarantees_retry_progress(self):
        """Retries (attempt > 0) never fire: a fenced attempt's redo
        runs clean, so every gray-failure run terminates."""
        injector = FaultInjector(
            FaultProfile(seed=1, cluster_hang_p=1.0, cluster_drop_p=1.0)
        )
        assert injector.should_fire("cluster.hang", 5, 0)
        assert not injector.should_fire("cluster.hang", 5, 1)
        assert not injector.should_fire("cluster.drop", 5, 7)

    def test_seed_changes_schedule(self):
        def fire(seed):
            injector = FaultInjector(FaultProfile(seed=seed, cluster_delay_p=0.5))
            return [injector.should_fire("cluster.delay", split, 0) for split in range(64)]

        assert fire(1) != fire(2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cluster_hang_p": -0.1},
            {"cluster_drop_p": 1.5},
            {"slow_delay_s": -1.0},
            {"max_fires_per_site": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultProfile(seed=1, **kwargs)

    def test_gray_failure_preset_covers_all_sites(self):
        profile = gray_failure_schedule()
        for site in GRAY_SITES:
            assert profile.probability(site) > 0


class TestInjectorScheduleSurface:
    def test_no_schedule_never_fires(self):
        injector = FaultInjector(None)
        assert not injector.should_fire("cluster.hang", 0, 0)
        assert injector.fired_events() == []

    def test_trace_records_fired_draws(self):
        injector = FaultInjector(FaultProfile(seed=3, cluster_drop_p=1.0))
        assert injector.should_fire("cluster.drop", 2, 0)
        assert injector.should_fire("cluster.drop", 1, 0)
        assert not injector.should_fire("cluster.drop", 1, 1)
        # A later job's first dispatch of split 1 is a fresh draw (n=1).
        assert injector.should_fire("cluster.drop", 1, 0)
        # Sorted on read: recording order (thread interleaving) must not
        # change what two runs compare.
        assert injector.fired_events() == [
            ("cluster.drop", 1, 0, 0),
            ("cluster.drop", 1, 0, 1),
            ("cluster.drop", 2, 0, 0),
        ]
        assert injector.stats()["cluster.drop"] == 3

    def test_enabled_with_schedule_only(self):
        assert FaultInjector(FaultProfile(seed=1, cluster_hang_p=0.5)).enabled
        assert not FaultInjector(None).enabled
