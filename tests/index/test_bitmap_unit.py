"""PartitionBitmapIndex / BitmapColumnView semantics in isolation."""

from __future__ import annotations

from array import array

from repro.index.bitmap import (
    BitmapColumnView,
    PartitionBitmapIndex,
    evaluate_program,
    iter_bits,
    program_ordinals,
)
from repro.sql.pruning import PruningPredicate


def indexed_rows(values, ordinal=0, **kwargs) -> PartitionBitmapIndex:
    index = PartitionBitmapIndex(ordinal, **kwargs)
    for position, value in enumerate(values):
        row = ("pad",) * ordinal + (value,)
        index.record(row, pointer=1000 + position)
    return index


def positions(bits) -> list[int]:
    return list(iter_bits(bits))


class TestIterBits:
    def test_ascending_append_order(self):
        assert positions(0b1011001) == [0, 3, 4, 6]

    def test_empty(self):
        assert positions(0) == []


class TestRecordAndMerge:
    def test_view_sees_rows_still_in_the_delta(self):
        # Threshold far above the row count: nothing auto-merged, the
        # snapshot-forced merge must still cover every row.
        index = indexed_rows(["a", "b", "a"], merge_threshold=512)
        view = index.snapshot_view()
        assert positions(view.eval_atom(PruningPredicate(0, "eq", ("a",)))) == [0, 2]
        assert positions(view.eval_atom(PruningPredicate(0, "eq", ("b",)))) == [1]

    def test_threshold_folds_delta_incrementally(self):
        index = indexed_rows(list("abab") * 5, merge_threshold=4)
        stats = index.memory_stats()
        assert stats["rows"] == 20
        assert stats["distinct_values"] == 2
        view = index.snapshot_view()
        assert view.eval_atom(PruningPredicate(0, "eq", ("a",))).bit_count() == 10

    def test_pointers_follow_append_order(self):
        index = indexed_rows(["x", "y", "x"])
        view = index.snapshot_view()
        assert [view.pointer_at(p) for p in range(3)] == [1000, 1001, 1002]


class TestSnapshotVisibility:
    def test_later_appends_invisible_to_captured_view(self):
        index = indexed_rows(["a", "b", "a"])
        view = index.snapshot_view()
        assert view.row_count == 3
        # Writer keeps appending "a" rows; the captured view must not
        # grow, even though it shares the pointers array by reference.
        for position in range(3, 40):
            index.record(("a",), pointer=1000 + position)
        assert index.rows == 40
        assert view.row_count == 3
        assert positions(view.eval_atom(PruningPredicate(0, "eq", ("a",)))) == [0, 2]
        assert view.eval_atom(PruningPredicate(0, "notnull")) == 0b111

    def test_fresh_view_sees_the_appends(self):
        index = indexed_rows(["a"])
        old = index.snapshot_view()
        index.record(("a",), pointer=1001)
        new = index.snapshot_view()
        assert (old.row_count, new.row_count) == (1, 2)
        assert new.eval_atom(PruningPredicate(0, "eq", ("a",))).bit_count() == 2


class TestEvalAtom:
    def view(self, values):
        return indexed_rows(values).snapshot_view()

    def test_eq_in_and_nulls(self):
        view = self.view(["a", None, "b", "a"])
        assert positions(view.eval_atom(PruningPredicate(0, "eq", ("a",)))) == [0, 3]
        assert positions(
            view.eval_atom(PruningPredicate(0, "in", ("a", "b")))
        ) == [0, 2, 3]
        assert positions(view.eval_atom(PruningPredicate(0, "isnull"))) == [1]
        assert positions(view.eval_atom(PruningPredicate(0, "notnull"))) == [0, 2, 3]

    def test_missing_value_is_empty_not_none(self):
        view = self.view(["a"])
        assert view.eval_atom(PruningPredicate(0, "eq", ("zzz",))) == 0

    def test_ranges_skip_nulls(self):
        view = self.view([10, None, 20, 30])
        assert positions(view.eval_atom(PruningPredicate(0, "lt", (25,)))) == [0, 2]
        assert positions(view.eval_atom(PruningPredicate(0, "le", (20,)))) == [0, 2]
        assert positions(view.eval_atom(PruningPredicate(0, "gt", (10,)))) == [2, 3]
        assert positions(view.eval_atom(PruningPredicate(0, "ge", (30,)))) == [3]

    def test_uncomparable_literal_returns_none(self):
        # A string literal against long storage: the atom must refuse
        # (None) so the planner rejects the whole bitmap plan instead
        # of silently dropping rows.
        view = self.view([10, 20])
        assert view.eval_atom(PruningPredicate(0, "lt", ("x",))) is None


class TestEvaluateProgram:
    def make_views(self):
        city = indexed_rows(["nl", "de", "nl", "us"], ordinal=1)
        age = indexed_rows([30, 30, 40, 30], ordinal=2)
        return {1: city.snapshot_view(), 2: age.snapshot_view()}

    def test_and_or_composition(self):
        views = self.make_views()
        program = (
            "and",
            [
                (
                    "or",
                    [
                        ("pred", PruningPredicate(1, "eq", ("nl",))),
                        ("pred", PruningPredicate(1, "eq", ("us",))),
                    ],
                ),
                ("pred", PruningPredicate(2, "eq", (30,))),
            ],
        )
        assert positions(evaluate_program(program, views)) == [0, 3]
        assert program_ordinals(program) == frozenset((1, 2))

    def test_missing_view_poisons_the_whole_program(self):
        views = self.make_views()
        program = (
            "and",
            [
                ("pred", PruningPredicate(1, "eq", ("nl",))),
                ("pred", PruningPredicate(9, "eq", (1,))),
            ],
        )
        assert evaluate_program(program, views) is None

    def test_unsupported_atom_poisons_the_whole_program(self):
        views = self.make_views()
        program = (
            "or",
            [
                ("pred", PruningPredicate(1, "eq", ("nl",))),
                ("pred", PruningPredicate(2, "lt", ("not-a-number",))),
            ],
        )
        assert evaluate_program(program, views) is None


class TestDurabilityState:
    def test_export_import_round_trip(self):
        index = indexed_rows(["a", "b", None, "a"], ordinal=3)
        restored = PartitionBitmapIndex.from_state(index.export_state())
        view, original = restored.snapshot_view(), index.snapshot_view()
        assert view.row_count == original.row_count
        assert view.values == original.values
        assert array("Q", view.pointers) == array("Q", original.pointers)
        # The restored index keeps indexing appended rows.
        restored.record(("ignored", "ignored", "ignored", "b"), pointer=2000)
        assert positions(
            restored.snapshot_view().eval_atom(PruningPredicate(3, "eq", ("b",)))
        ) == [1, 4]
