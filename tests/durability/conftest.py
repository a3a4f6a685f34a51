"""Fixtures for the durability suite: sessions with on-disk state."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.sql.session import Session


def durable_config(state_dir, **overrides) -> Config:
    """Small deterministic config with durability on, rooted at
    ``state_dir``. Checkpoint thresholds default high enough that only
    explicit ``checkpoint()`` calls cut one."""
    base = dict(
        shuffle_partitions=4,
        default_parallelism=2,
        batch_size_bytes=64 * 1024,
        durability_enabled=True,
        durability_dir=str(state_dir),
    )
    base.update(overrides)
    return Config(**base)


@pytest.fixture()
def state_dir(tmp_path):
    return tmp_path / "state"


@pytest.fixture()
def make_session(state_dir):
    """Factory for durable sessions sharing one state root — calling it
    twice models a process restart over the same disk. Crashed sessions
    are still stopped on teardown (closing leaked WAL handles)."""
    created: list[Session] = []

    def factory(**overrides) -> Session:
        session = Session(durable_config(state_dir, **overrides))
        created.append(session)
        return session

    yield factory
    for session in created:
        session.stop()
