"""Determinism and independence properties of the fault injector."""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InjectedFault
from repro.faults import NULL_INJECTOR, SITES, FaultInjector, FaultProfile, chaos_profile


def draws(injector: FaultInjector, site: str, n: int = 200) -> list[bool]:
    return [injector.should_fire(site) for _ in range(n)]


class TestDeterminism:
    def test_same_profile_same_sequence(self):
        profile = FaultProfile(seed=11, task_crash_p=0.3, shuffle_loss_p=0.3)
        a = FaultInjector(profile)
        b = FaultInjector(profile)
        for site in ("task", "shuffle.fetch"):
            assert draws(a, site) == draws(b, site)

    def test_different_seeds_diverge(self):
        a = FaultInjector(FaultProfile(seed=1, task_crash_p=0.5))
        b = FaultInjector(FaultProfile(seed=2, task_crash_p=0.5))
        assert draws(a, "task") != draws(b, "task")

    def test_sites_are_independent_streams(self):
        # Enabling (and drawing from) a second site must not perturb the
        # first site's fire pattern.
        both = FaultInjector(FaultProfile(seed=7, task_crash_p=0.4, shuffle_loss_p=0.9))
        only = FaultInjector(FaultProfile(seed=7, task_crash_p=0.4))
        interleaved = []
        for _ in range(200):
            both.should_fire("shuffle.fetch")
            interleaved.append(both.should_fire("task"))
        assert interleaved == draws(only, "task")

    def test_choose_is_deterministic(self):
        profile = FaultProfile(seed=3, shuffle_loss_p=1.0)
        a = FaultInjector(profile)
        b = FaultInjector(profile)
        options = list(range(10))
        assert [a.choose("shuffle.fetch", options) for _ in range(50)] == [
            b.choose("shuffle.fetch", options) for _ in range(50)
        ]


class TestFiring:
    def test_max_fires_caps_exactly(self):
        injector = FaultInjector(FaultProfile(seed=0, task_crash_p=1.0, max_fires_per_site=3))
        assert draws(injector, "task", 10) == [True] * 3 + [False] * 7
        assert injector.stats() == {"task": 3}

    def test_maybe_fail_raises_with_site(self):
        injector = FaultInjector(FaultProfile(seed=0, broker_read_p=1.0))
        with pytest.raises(InjectedFault, match="broker.read"):
            injector.maybe_fail("broker.read")

    def test_zero_probability_never_fires(self):
        injector = FaultInjector(FaultProfile(seed=0, task_crash_p=1.0))
        assert not any(draws(injector, "shuffle.fetch"))
        assert not any(draws(injector, "unknown.site"))

    def test_maybe_delay_sleeps(self):
        injector = FaultInjector(
            FaultProfile(seed=0, task_slow_p=1.0, slow_delay_s=0.02, max_fires_per_site=1)
        )
        start = time.monotonic()
        injector.maybe_delay()
        assert time.monotonic() - start >= 0.015
        # Capped: the second call must not sleep.
        start = time.monotonic()
        injector.maybe_delay()
        assert time.monotonic() - start < 0.015

    def test_approximate_rate(self):
        injector = FaultInjector(FaultProfile(seed=5, task_crash_p=0.25))
        fired = sum(draws(injector, "task", 2000))
        assert 350 < fired < 650  # ~500 expected


class TestDisabled:
    def test_null_injector_is_inert(self):
        assert not NULL_INJECTOR.enabled
        assert not NULL_INJECTOR.should_fire("task")
        NULL_INJECTOR.maybe_fail("task")  # no raise
        NULL_INJECTOR.maybe_delay()
        assert NULL_INJECTOR.stats() == {}

    def test_chaos_profile_mix(self):
        profile = chaos_profile(seed=1337)
        assert profile.task_crash_p == pytest.approx(0.2)
        assert profile.shuffle_loss_p == pytest.approx(0.1)
        assert profile.broker_read_p == pytest.approx(0.1)
        assert profile.broker_commit_p == pytest.approx(0.1)
        for site in SITES:
            assert profile.probability(site) >= 0.0


# ----------------------------------------------------------------------
# Interleaving independence of the keyed model
# ----------------------------------------------------------------------

#: (site, partition, attempt) draw keys: two partitioned sites, one
#: unpartitioned (-1) key among them, and retry attempts (which never
#: fire).
KEYS = st.tuples(
    st.sampled_from(("task", "shuffle.fetch", "cluster.hang")),
    st.integers(min_value=-1, max_value=3),
    st.integers(min_value=0, max_value=2),
)
ORDERS = st.lists(KEYS, max_size=80)
SEEDS = st.integers(min_value=0, max_value=2**32)


def _profile(seed: int, **caps) -> FaultProfile:
    return FaultProfile(
        seed=seed, task_crash_p=0.4, shuffle_loss_p=0.3, cluster_hang_p=0.5, **caps
    )


def _alone(profile: FaultProfile, key, count: int) -> list[bool]:
    injector = FaultInjector(profile)
    return [injector.should_fire(*key) for _ in range(count)]


def _drawn(injector: FaultInjector, orders) -> list[dict]:
    """Draw each order on its own thread (all released together, with a
    short switch interval so draws interleave); returns each thread's
    per-key fire sequence."""
    seen: list[dict] = [{} for _ in orders]
    barrier = threading.Barrier(len(orders))

    def worker(index: int) -> None:
        barrier.wait(timeout=10)
        for key in orders[index]:
            seen[index].setdefault(key, []).append(injector.should_fire(*key))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return seen


class TestKeyedInterleaving:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, order=ORDERS)
    def test_each_key_fires_as_if_drawn_alone(self, seed, order):
        profile = _profile(seed)
        (seen,) = _drawn(FaultInjector(profile), [order])
        for key, fires in seen.items():
            assert fires == _alone(profile, key, len(fires)), key

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, order=ORDERS)
    def test_two_threads_keep_each_keys_sequence(self, seed, order):
        # Keys split between two threads by partition parity: each key
        # is drawn by one thread, concurrently with the other's keys.
        profile = _profile(seed)
        evens = [key for key in order if key[1] % 2 == 0]
        odds = [key for key in order if key[1] % 2 != 0]
        for seen in _drawn(FaultInjector(profile), [evens, odds]):
            for key, fires in seen.items():
                assert fires == _alone(profile, key, len(fires)), key

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, order=ORDERS, data=st.data())
    def test_same_seed_same_fired_events(self, seed, order, data):
        # The same draws in another order, and split over two threads
        # that may share keys, record the same sorted events.
        profile = _profile(seed)
        shuffled = data.draw(st.permutations(order))
        half = len(order) // 2
        sequential = FaultInjector(profile)
        _drawn(sequential, [order])
        threaded = FaultInjector(profile)
        _drawn(threaded, [shuffled[:half], shuffled[half:]])
        assert threaded.fired_events() == sequential.fired_events()
        assert threaded.stats() == sequential.stats()

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, order=ORDERS, limit=st.integers(min_value=0, max_value=4))
    def test_caps_are_honoured(self, seed, order, limit):
        uncapped = FaultInjector(_profile(seed))
        _drawn(uncapped, [order])
        assert all(attempt == 0 for _site, _part, attempt, _n in uncapped.fired_events())
        capped = FaultInjector(_profile(seed, max_fires_per_site=limit))
        half = len(order) // 2
        _drawn(capped, [order[:half], order[half:]])
        events = capped.fired_events()
        assert set(events) <= set(uncapped.fired_events())
        for site, fires in uncapped.stats().items():
            # Draws past the cap still count, so the first `limit` fires
            # of the uncapped run are exactly the ones that happen.
            assert capped.stats().get(site, 0) == min(limit, fires)

    @settings(max_examples=30, deadline=None)
    @given(order=ORDERS)
    def test_disabled_injector_fires_nothing(self, order):
        for injector in (FaultInjector(None), FaultInjector(FaultProfile(seed=1))):
            _drawn(injector, [order, list(reversed(order))])
            assert injector.fired_events() == []
            assert injector.stats() == {}
            # Returned before counting: no key was ever claimed.
            assert injector._draws == {}
