"""Query-level differential: every query shape must return the rows a
plain-Python evaluation of the same query gives.

The compiled batch kernels replace the hot loops of FilterExec,
ProjectExec, the hash joins/aggregates, and the indexed scan/lookup
operators — so each of those plans runs here against answers computed
row by row in Python over the same data, NULLs included.
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.sql.functions import avg, col, count, lit, sum_
from repro.sql.session import Session

PEOPLE = [
    (1, "ann", 30, "nl"),
    (2, "bob", 25, "us"),
    (3, "cat", 35, "nl"),
    (4, "dan", 25, "de"),
    (5, None, 40, "us"),
    (6, "eve", None, None),
    (7, "fox", 25, "de"),
]
ORDERS = [
    (10, 1, 99.5),
    (11, 1, 15.0),
    (12, 3, 40.0),
    (13, 9, 7.0),
    (14, 2, None),
    (15, None, 3.0),
]
PEOPLE_SCHEMA = [("id", "long"), ("name", "string"), ("age", "long"),
                 ("country", "string")]
ORDERS_SCHEMA = [("oid", "long"), ("pid", "long"), ("amount", "double")]


def make_session() -> Session:
    session = Session(
        Config(
            executor_threads=2,
            shuffle_partitions=3,
            default_parallelism=2,
            batch_size_bytes=64 * 1024,
            broadcast_threshold=2,  # exercise the shuffled join too
        )
    )
    enable_indexing(session)
    return session


@pytest.fixture()
def session():
    session = make_session()
    yield session
    session.stop()


def run(session, query):
    people = session.create_dataframe(PEOPLE, PEOPLE_SCHEMA)
    orders = session.create_dataframe(ORDERS, ORDERS_SCHEMA)
    return query(people, orders).collect_tuples()


def _sortable(rows):
    return sorted(rows, key=lambda r: tuple((v is None, str(v)) for v in r))


QUERIES = {
    "filter-project-fused": lambda p, o: p.filter(
        (col("age") > 24) & (col("country") != "us")
    ).select(col("name"), (col("age") * lit(2)).alias("dbl")),
    "filter-only": lambda p, o: p.filter(col("age").is_not_null()),
    "project-only": lambda p, o: p.select(
        (col("id") + col("age")).alias("s"), col("country")
    ),
    "inner-join": lambda p, o: p.join(o, on=col("id") == col("pid")),
    "left-join": lambda p, o: p.join(o, on=col("id") == col("pid"), how="left"),
    "right-join": lambda p, o: p.join(o, on=col("id") == col("pid"), how="right"),
    "full-join": lambda p, o: p.join(o, on=col("id") == col("pid"), how="full"),
    "join-extra-condition": lambda p, o: p.join(
        o, on=(col("id") == col("pid")) & (col("amount") > 20.0)
    ),
    "aggregate": lambda p, o: p.group_by("country").agg(
        count().alias("n"), avg(col("age")).alias("avg_age")
    ),
    "aggregate-global": lambda p, o: o.group_by().agg(
        sum_(col("amount")).alias("total"), count().alias("n")
    ),
    "sort-limit": lambda p, o: p.order_by(col("age"), col("id")).limit(4),
    "distinct": lambda p, o: p.select(col("country")).distinct(),
    "union": lambda p, o: p.select(col("id")).union(o.select(col("pid"))),
}


def _joined(how: str, extra=lambda o: True) -> list[tuple]:
    """``PEOPLE ⋈ ORDERS`` on ``id = pid`` (plus ``extra``), padded with
    NULLs on the side(s) ``how`` preserves."""
    out = [p + o for p in PEOPLE for o in ORDERS if p[0] == o[1] and extra(o)]
    if how in ("left", "full"):
        out += [p + (None,) * 3 for p in PEOPLE if not any(p[0] == o[1] for o in ORDERS)]
    if how in ("right", "full"):
        out += [(None,) * 4 + o for o in ORDERS if not any(p[0] == o[1] for p in PEOPLE)]
    return out


def _by_country() -> list[tuple]:
    out = []
    for country in {p[3] for p in PEOPLE}:
        ages = [p[2] for p in PEOPLE if p[3] == country and p[2] is not None]
        n = sum(1 for p in PEOPLE if p[3] == country)
        out.append((country, n, sum(ages) / len(ages) if ages else None))
    return out


#: The plain-Python answer of each query in QUERIES.
EXPECTED = {
    "filter-project-fused": [
        (name, age * 2)
        for _id, name, age, country in PEOPLE
        if age is not None and age > 24 and country is not None and country != "us"
    ],
    "filter-only": [p for p in PEOPLE if p[2] is not None],
    "project-only": [
        (None if age is None else i + age, country) for i, _n, age, country in PEOPLE
    ],
    "inner-join": _joined("inner"),
    "left-join": _joined("left"),
    "right-join": _joined("right"),
    "full-join": _joined("full"),
    "join-extra-condition": _joined(
        "inner", lambda o: o[2] is not None and o[2] > 20.0
    ),
    "aggregate": _by_country(),
    "aggregate-global": [
        (sum(o[2] for o in ORDERS if o[2] is not None), len(ORDERS))
    ],
    # ORDER BY age, id: ascending puts NULLs first.
    "sort-limit": sorted(PEOPLE, key=lambda p: (p[2] is not None, p[2] or 0, p[0]))[:4],
    "distinct": [(c,) for c in {p[3] for p in PEOPLE}],
    "union": [(p[0],) for p in PEOPLE] + [(o[1],) for o in ORDERS],
}


@pytest.mark.parametrize("label", sorted(QUERIES))
def test_query_shapes_identical(session, label):
    got = run(session, QUERIES[label])
    expected = EXPECTED[label]
    if label == "sort-limit":
        assert got == expected  # order is part of the contract here
    else:
        assert _sortable(got) == _sortable(expected)


def test_indexed_scan_lookup_and_join_identical(session):
    people = session.create_dataframe(PEOPLE, PEOPLE_SCHEMA)
    orders = session.create_dataframe(ORDERS, ORDERS_SCHEMA)
    indexed = create_index(people, "id")
    got = {
        "scan": _sortable(indexed.to_df().collect_tuples()),
        "pruned": _sortable(
            indexed.to_df().select(col("name"), col("id")).collect_tuples()
        ),
        "point": indexed.get_rows_local(3),
        "in-list": _sortable(
            indexed.to_df().filter(col("id").isin(1, 3, 5, 42)).collect_tuples()
        ),
        "indexed-join": _sortable(
            indexed.join(orders, on=indexed.col("id") == col("pid")).collect_tuples()
        ),
    }
    assert got == {
        "scan": _sortable(PEOPLE),
        "pruned": _sortable([(p[1], p[0]) for p in PEOPLE]),
        "point": [p for p in PEOPLE if p[0] == 3],
        "in-list": _sortable([p for p in PEOPLE if p[0] in (1, 3, 5, 42)]),
        "indexed-join": _sortable(_joined("inner")),
    }


def test_indexed_multiversion_identical(session):
    people = session.create_dataframe(PEOPLE, PEOPLE_SCHEMA)
    v1 = create_index(people, "id")
    v2 = v1.append_rows([(8, "gus", 50, "nl"), (1, "ann2", 31, "nl")])
    assert len(v1.to_df().collect_tuples()) == len(PEOPLE)
    assert len(v2.to_df().collect_tuples()) == len(PEOPLE) + 2
    # Chain order: newest row first for the doubled key.
    assert [r[1] for r in v2.get_rows_local(1)] == ["ann2", "ann"]
