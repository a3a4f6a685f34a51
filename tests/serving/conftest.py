"""Fixtures for the serving suite: governed sessions and fake clocks."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import enable_indexing
from repro.sql.session import Session


def serving_config(**overrides) -> Config:
    """Small deterministic config with the serving layer enabled."""
    base = dict(
        shuffle_partitions=4,
        default_parallelism=2,
        broadcast_threshold=50,
        retry_backoff_s=0.0005,
        serving_enabled=True,
        serving_queue_timeout_s=0.2,
    )
    base.update(overrides)
    return Config(**base)


class FakeClock:
    """A manually-advanced monotonic clock for deterministic timing."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def make_serving_session():
    """Factory for serving-enabled sessions; stops them on teardown."""
    created: list[Session] = []

    def factory(indexed: bool = False, **overrides) -> Session:
        session = Session(serving_config(**overrides))
        if indexed:
            enable_indexing(session)
        created.append(session)
        return session

    yield factory
    for session in created:
        session.stop()


@pytest.fixture()
def serving_session(make_serving_session):
    session = make_serving_session()
    df = session.create_dataframe(
        [(i, i % 10, float(i)) for i in range(400)],
        [("id", "long"), ("bucket", "long"), ("value", "double")],
        num_partitions=8,
    )
    session.create_or_replace_temp_view("rows", df)
    return session
