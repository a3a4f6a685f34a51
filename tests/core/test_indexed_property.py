"""Property-based tests: indexed results must equal vanilla results."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql.functions import col
from repro.sql.session import Session

slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

rows_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.text(max_size=6), st.integers(-5, 5)),
    max_size=60,
)


@pytest.fixture(scope="module")
def shared_session():
    s = Session(
        Config(
            shuffle_partitions=3,
            default_parallelism=2,
            batch_size_bytes=16 * 1024,
            broadcast_threshold=10,
        )
    )
    enable_indexing(s)
    yield s
    s.stop()


SCHEMA = [("k", "long"), ("s", "string"), ("v", "long")]


@slow
@given(rows=rows_strategy, key=st.integers(0, 30))
def test_get_rows_matches_filter(shared_session, rows, key):
    df = shared_session.create_dataframe(rows, SCHEMA)
    indexed = create_index(df, "k")
    via_index = sorted(map(tuple, indexed.get_rows(key).collect()))
    via_scan = sorted(map(tuple, df.filter(col("k") == key).collect()))
    assert via_index == via_scan
    assert sorted(indexed.get_rows_local(key)) == via_scan


@slow
@given(rows=rows_strategy)
def test_scan_preserves_multiset(shared_session, rows):
    df = shared_session.create_dataframe(rows, SCHEMA)
    indexed = create_index(df, "k")
    assert sorted(indexed.scan_tuples()) == sorted(map(tuple, rows))
    assert indexed.count() == len(rows)


@slow
@given(base=rows_strategy, extra=rows_strategy)
def test_append_equals_union(shared_session, base, extra):
    df = shared_session.create_dataframe(base, SCHEMA)
    indexed = create_index(df, "k")
    appended = indexed.append_rows([tuple(r) for r in extra])
    assert sorted(appended.scan_tuples()) == sorted(map(tuple, base + extra))
    # the original version is untouched
    assert sorted(indexed.scan_tuples()) == sorted(map(tuple, base))


@slow
@given(build=rows_strategy, probe_keys=st.lists(st.integers(0, 30), max_size=20))
def test_indexed_join_matches_vanilla(shared_session, build, probe_keys):
    build_df = shared_session.create_dataframe(build, SCHEMA)
    probe_df = shared_session.create_dataframe(
        [(k, i) for i, k in enumerate(probe_keys)], [("pk", "long"), ("seq", "long")]
    )
    indexed = create_index(build_df, "k")
    via_index = sorted(
        map(tuple, indexed.join(probe_df, on=indexed.col("k") == probe_df.col("pk")).collect()),
        key=repr,
    )
    via_vanilla = sorted(
        map(tuple, build_df.join(probe_df, on=build_df.col("k") == probe_df.col("pk")).collect()),
        key=repr,
    )
    assert via_index == via_vanilla


@slow
@given(rows=rows_strategy, keys=st.lists(st.integers(0, 30), min_size=1, max_size=5))
def test_in_lookup_matches_vanilla(shared_session, rows, keys):
    df = shared_session.create_dataframe(rows, SCHEMA)
    indexed = create_index(df, "k")
    via_index = sorted(
        map(tuple, indexed.to_df().filter(col("k").isin(keys)).collect())
    )
    expected = sorted(tuple(r) for r in rows if r[0] in keys)
    assert via_index == expected
