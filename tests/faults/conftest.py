"""Fixtures for the chaos suite: contexts/sessions with fault profiles."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import enable_indexing
from repro.engine.context import EngineContext
from repro.sql.session import Session


def fault_config(**overrides) -> Config:
    """Small deterministic config with fast retry backoffs."""
    base = dict(
        shuffle_partitions=4,
        default_parallelism=2,
        broadcast_threshold=50,
        retry_backoff_s=0.0005,
    )
    base.update(overrides)
    return Config(**base)


@pytest.fixture()
def make_ctx():
    """Factory for engine contexts; stops them all on teardown."""
    created: list[EngineContext] = []

    def factory(**overrides) -> EngineContext:
        context = EngineContext(fault_config(**overrides))
        created.append(context)
        return context

    yield factory
    for context in created:
        context.stop()


@pytest.fixture()
def make_session():
    """Factory for sessions (indexing enabled); stops them on teardown."""
    created: list[Session] = []

    def factory(**overrides) -> Session:
        session = Session(fault_config(**overrides))
        enable_indexing(session)
        created.append(session)
        return session

    yield factory
    for session in created:
        session.stop()
