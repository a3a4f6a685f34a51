"""Bitmap-vs-model differential: exact results, visible decisions.

The SNB person table is loaded with bitmap indexes attached; seeded
random AND/OR predicates over the indexed columns (plus uncovered
residuals) must return exactly the rows a pure-Python evaluation of the
same predicate over ``persons`` selects, and every planner decision
must leave its EXPLAIN marker.
"""

from __future__ import annotations

import random

import pytest

from repro.core import create_index
from repro.snb import generate
from repro.snb.schema import PERSON_SCHEMA
from repro.sql.functions import col

#: (kind, column) atom specs, realized as a Column and as a model.
ATOM_KINDS = ("gender_eq", "browser_eq", "city_eq", "city_le", "city_ge", "city_in")
SEEDS = range(20)


@pytest.fixture(scope="module")
def persons():
    return generate(scale_factor=0.05, seed=11).persons


@pytest.fixture()
def frames(make_bitmap_session, persons):
    """(frame with bitmap indexes, frame with only the cTrie index)."""
    session = make_bitmap_session()
    df = session.create_dataframe(persons, PERSON_SCHEMA, validate=False)
    with_bitmaps = (
        create_index(df, "id")
        .create_index("gender")
        .create_index("browser_used")
        .create_index("city_id")
    )
    return with_bitmaps.to_df(), create_index(df, "id").to_df()


def random_spec(rng: random.Random, persons) -> list:
    """A seeded predicate spec: [atom, op, atom, op, atom ...]."""
    sample = rng.choice(persons)
    city = sample[8]
    atoms = {
        "gender_eq": ("gender", "eq", sample[3]),
        "browser_eq": ("browser_used", "eq", sample[7]),
        "city_eq": ("city_id", "eq", city),
        "city_le": ("city_id", "le", city),
        "city_ge": ("city_id", "ge", city),
        "city_in": ("city_id", "in", (city, city + 1, city + 7)),
    }
    spec: list = [atoms[rng.choice(ATOM_KINDS)]]
    for _ in range(rng.randint(1, 3)):
        sample = rng.choice(persons)
        city = sample[8]
        atoms["gender_eq"] = ("gender", "eq", sample[3])
        atoms["city_eq"] = ("city_id", "eq", city)
        spec.append(rng.choice(("and", "or")))
        spec.append(atoms[rng.choice(ATOM_KINDS)])
    return spec


def realize(spec: list):
    def atom(entry):
        name, op, value = entry
        column = col(name)
        if op == "eq":
            return column == value
        if op == "le":
            return column <= value
        if op == "ge":
            return column >= value
        return column.isin(*value)

    out = atom(spec[0])
    for i in range(1, len(spec), 2):
        right = atom(spec[i + 1])
        out = (out & right) if spec[i] == "and" else (out | right)
    return out


ORDINAL = {field.name: i for i, field in enumerate(PERSON_SCHEMA.fields)}


def model_rows(spec: list, persons) -> list[tuple]:
    """The rows ``realize(spec)`` selects, by SQL three-valued logic."""

    def atom(entry, row):
        name, op, value = entry
        cell = row[ORDINAL[name]]
        if cell is None:
            return None
        if op == "eq":
            return cell == value
        if op == "le":
            return cell <= value
        if op == "ge":
            return cell >= value
        return cell in value

    def holds(row) -> bool:
        out = atom(spec[0], row)
        for i in range(1, len(spec), 2):
            right = atom(spec[i + 1], row)
            if spec[i] == "and":
                out = False if False in (out, right) else (
                    None if None in (out, right) else True
                )
            else:
                out = True if True in (out, right) else (
                    None if None in (out, right) else False
                )
        return out is True

    return sorted(tuple(row) for row in persons if holds(row))


def rows_of(df, predicate) -> list[tuple]:
    return sorted(df.filter(predicate).collect_tuples())


class TestSeededDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_and_or_predicates_bit_identical(self, frames, persons, seed):
        bitmap_df, _ = frames
        spec = random_spec(random.Random(seed), persons)
        assert rows_of(bitmap_df, realize(spec)) == model_rows(spec, persons)

    def test_residual_conjunct_still_filters(self, frames, persons):
        bitmap_df, _ = frames
        target = persons[len(persons) // 2]
        # first_name is not indexed: it must ride as a residual filter
        # above the bitmap fetch, not be dropped.
        predicate = (col("gender") == target[3]) & (col("first_name") == target[1])
        got = rows_of(bitmap_df, predicate)
        assert got == sorted(
            tuple(row)
            for row in persons
            if row[1] == target[1] and row[3] == target[3]
        )
        assert got  # the sampled person matches itself


def rare_value(persons, ordinal):
    """The least common value of a column — selective enough that the
    cost model (selected rows x fetch cost < scan rival) always picks
    the bitmap plan on this deterministic dataset."""
    counts: dict = {}
    for row in persons:
        counts[row[ordinal]] = counts.get(row[ordinal], 0) + 1
    return min(counts, key=counts.get)


class TestExplainMarkers:
    def physical_of(self, df, predicate) -> str:
        return df.filter(predicate).explain().split("== Physical ==")[1]

    def test_single_equality_marks_bitmap_chosen(self, frames, persons):
        bitmap_df, _ = frames
        plan = self.physical_of(
            bitmap_df, col("browser_used") == rare_value(persons, 7)
        )
        assert "bitmap_chosen=True" in plan

    def test_conjunction_marks_bitmap_and(self, frames, persons):
        bitmap_df, _ = frames
        plan = self.physical_of(
            bitmap_df,
            (col("browser_used") == rare_value(persons, 7))
            & (col("city_id") == rare_value(persons, 8)),
        )
        assert "bitmap_and=True" in plan

    def test_non_selective_predicate_marks_index_rejected(self, frames):
        bitmap_df, _ = frames
        metrics = bitmap_df.session.ctx.pruning_metrics
        before = metrics.snapshot()["index_rejected"]
        # Nearly every row has a non-negative city: fetching them one
        # by one costs more than the scan, so the planner must fall
        # back — and say so in both EXPLAIN and the counters.
        plan = self.physical_of(bitmap_df, col("city_id") >= 0)
        assert "index_rejected=cost=" in plan
        assert metrics.snapshot()["index_rejected"] == before + 1

    def test_frame_without_bitmap_index_has_no_bitmap_markers(self, frames, persons):
        _, ctrie_df = frames
        plan = self.physical_of(
            ctrie_df,
            (col("browser_used") == rare_value(persons, 7))
            & (col("city_id") == rare_value(persons, 8)),
        )
        assert "bitmap" not in plan.lower()
        assert "index_rejected" not in plan
        assert "IndexedScan" in plan
