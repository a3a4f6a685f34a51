"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import enable_indexing
from repro.engine.context import EngineContext
from repro.sql.session import Session


def small_config(**overrides) -> Config:
    """A deterministic, small configuration for tests."""
    base = dict(
        shuffle_partitions=4,
        default_parallelism=2,
        batch_size_bytes=64 * 1024,
        broadcast_threshold=50,
    )
    base.update(overrides)
    return Config(**base)


@pytest.fixture()
def ctx():
    context = EngineContext(small_config())
    yield context
    context.stop()


@pytest.fixture()
def session():
    s = Session(small_config())
    yield s
    s.stop()


@pytest.fixture()
def indexed_session():
    s = Session(small_config())
    enable_indexing(s)
    yield s
    s.stop()


@pytest.fixture()
def people_df(session):
    return session.create_dataframe(
        [
            (1, "ann", 30, "nl"),
            (2, "bob", 25, "us"),
            (3, "cat", 35, "nl"),
            (4, "dan", 25, "de"),
            (5, None, 40, "us"),
        ],
        [("id", "long"), ("name", "string"), ("age", "long"), ("country", "string")],
    )


@pytest.fixture()
def orders_df(session):
    return session.create_dataframe(
        [
            (10, 1, 99.5),
            (11, 1, 15.0),
            (12, 3, 40.0),
            (13, 9, 7.0),
            (14, 2, None),
        ],
        [("oid", "long"), ("pid", "long"), ("amount", "double")],
    )
