"""Cancelled queries stop bitmap fetches instead of materialising them.

The bitmap fetch loop walks every set bit of a selection without
crossing a chunk boundary; it now polls the query context every 1024
rows, so a cancelled or deadline-expired query unwinds mid-fetch.
"""

import pytest

from repro.core import create_index
from repro.errors import QueryCancelledError
from repro.engine.query import QueryContext, active
from repro.sql.functions import col

SCHEMA = [("id", "long"), ("city", "string"), ("age", "long")]


def make_indexed(session):
    rows = [(i, "ab"[i % 2], 20 + i % 5) for i in range(200)]
    df = session.create_dataframe(rows, SCHEMA)
    return create_index(df, "id").create_index("age")


def test_cancelled_query_aborts_bitmap_scan(make_bitmap_session):
    session = make_bitmap_session()
    indexed = make_indexed(session)
    query = QueryContext.create()
    query.cancel("user abort")
    with active(query):
        with pytest.raises(QueryCancelledError):
            indexed.to_df().filter(col("age") == 21).collect_tuples()


def test_live_query_scans_normally(make_bitmap_session):
    session = make_bitmap_session()
    indexed = make_indexed(session)
    query = QueryContext.create()
    with active(query):
        rows = indexed.to_df().filter(col("age") == 21).collect_tuples()
    assert rows and all(age == 21 for _id, _city, age in rows)
