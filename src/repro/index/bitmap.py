"""CUBIT-style updatable bitmap indexes over indexed partitions.

One :class:`PartitionBitmapIndex` maintains, for a single column of a
single :class:`~repro.core.partition.IndexedPartition`, a bitmap per
distinct value: bit *i* is set iff the partition's *i*-th appended row
holds that value. Bitmaps are arbitrary-precision Python integers —
the word-aligned compressed representation this runtime offers: dense
runs cost one machine word per 30 bits and AND/OR/NOT run at C speed
over whole words, which is exactly the access pattern WAH/roaring
compression optimizes for in CUBIT (arxiv 2410.16929).

**Updatability** follows CUBIT's merge-on-demand design: appends land
in per-value *delta* position lists (O(1) per row, no big-int rebuild
per append) and are folded into the merged bitmaps when a delta grows
past ``merge_threshold`` — or, at the latest, when a snapshot view is
captured.

**Snapshot visibility** rides the storage layer's append-only
invariant: a row's bit position is its append ordinal, so a reader at
MVCC version *v* sees exactly the first ``row_count(v)`` bits. A
:class:`BitmapColumnView` therefore masks every bitmap to
``(1 << row_count) - 1`` — writers keep setting bits at higher
positions while readers evaluate, and neither ever waits for the
other. The per-ordinal packed-pointer array (append ordinal → row
pointer) is append-only too and shared by reference across views.

The module also hosts the predicate compiler: a filter condition tree
compiles to a *bitmap program* (nested AND/OR over per-column atoms)
evaluated per partition at plan time, which is what gives the planner
an exact selected-row count to cost against the zone-map-pruned scan.
"""

from __future__ import annotations

import threading
from array import array
from typing import Any, Iterator, Sequence

from repro.sql.pruning import PruningPredicate

#: Delta positions buffered per partition before folding into the
#: merged bitmaps. Small enough that a snapshot-forced merge is cheap,
#: large enough that appends amortize the big-int rebuild.
DEFAULT_MERGE_THRESHOLD = 512


def iter_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of ``bits``, ascending (append order)."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class BitmapColumnView:  # analysis: shipped
    """An immutable snapshot of one partition's bitmaps for one column.

    Captured under the partition append lock, so ``row_count`` equals
    the owning :class:`~repro.core.partition.PartitionSnapshot`'s row
    count exactly. ``values`` maps each distinct column value (``None``
    included) to its merged bitmap; all evaluation masks to the first
    ``row_count`` bits, making bits set by later appends invisible.
    ``pointers`` is the live append-only ordinal→packed-pointer array,
    shared by reference — only positions below ``row_count`` are read.
    """

    __slots__ = ("ordinal", "values", "row_count", "pointers")

    def __init__(
        self,
        ordinal: int,
        values: dict[Any, int],
        row_count: int,
        pointers: "array[int]",
    ):
        self.ordinal = ordinal
        self.values = values
        self.row_count = row_count
        self.pointers = pointers

    @property
    def mask(self) -> int:
        return (1 << self.row_count) - 1

    def pointer_at(self, position: int) -> int:
        return self.pointers[position]

    def eval_atom(self, pred: PruningPredicate) -> int | None:
        """The bitmap of rows satisfying ``pred`` at this version, or
        ``None`` when the atom cannot be evaluated soundly here (a
        stored value does not compare with the literal — the planner
        then rejects the bitmap plan rather than guess)."""
        mask = self.mask
        op = pred.op
        values = self.values
        if op == "eq":
            return values.get(pred.values[0], 0) & mask
        if op == "in":
            bits = 0
            for value in pred.values:
                bits |= values.get(value, 0)
            return bits & mask
        if op == "isnull":
            return values.get(None, 0) & mask
        if op == "notnull":
            return mask & ~values.get(None, 0)
        # Range operator: OR together every distinct value that
        # satisfies it. NULLs never match a comparison.
        bits = 0
        try:
            if op == "lt":
                for value, bitmap in values.items():
                    if value is not None and value < pred.values[0]:
                        bits |= bitmap
            elif op == "le":
                for value, bitmap in values.items():
                    if value is not None and value <= pred.values[0]:
                        bits |= bitmap
            elif op == "gt":
                for value, bitmap in values.items():
                    if value is not None and value > pred.values[0]:
                        bits |= bitmap
            elif op == "ge":
                for value, bitmap in values.items():
                    if value is not None and value >= pred.values[0]:
                        bits |= bitmap
            else:
                return None
        except TypeError:
            return None
        return bits & mask

    def __repr__(self) -> str:
        return (
            f"BitmapColumnView(ordinal={self.ordinal}, "
            f"values={len(self.values)}, rows={self.row_count})"
        )


class PartitionBitmapIndex:
    """Updatable per-value bitmaps for one column of one partition.

    Writers call :meth:`record` once per appended row *under the
    partition's append lock* (the index's own lock nests inside it and
    is never taken the other way around); readers only ever touch the
    immutable :class:`BitmapColumnView` handed out by
    :meth:`snapshot_view`.
    """

    def __init__(
        self, ordinal: int, merge_threshold: int = DEFAULT_MERGE_THRESHOLD
    ):
        self.ordinal = ordinal
        self.merge_threshold = max(1, merge_threshold)
        self._lock = threading.Lock()
        #: value → merged bitmap (positions folded out of the delta).
        self._values: dict[Any, int] = {}  # guarded-by: _lock
        #: value → pending append positions, CUBIT's update delta.
        self._delta: dict[Any, list[int]] = {}  # guarded-by: _lock
        self._delta_rows = 0  # guarded-by: _lock
        #: append ordinal → packed row pointer, append-only.
        self._pointers: "array[int]" = array("Q")  # guarded-by: _lock
        self._rows = 0  # guarded-by: _lock

    # -- writes (under the owning partition's append lock) ---------------

    def record(self, row: Sequence[Any], pointer: int) -> None:
        """Index one appended row at the next append ordinal."""
        value = row[self.ordinal]
        with self._lock:
            self._delta.setdefault(value, []).append(self._rows)
            self._pointers.append(pointer)
            self._rows += 1
            self._delta_rows += 1
            if self._delta_rows >= self.merge_threshold:
                self._merge_locked()

    def _merge_locked(self) -> None:  # requires-lock: _lock
        """Fold the delta position lists into the merged bitmaps."""
        if not self._delta_rows:
            return
        for value, positions in self._delta.items():
            bits = self._values.get(value, 0)
            for position in positions:
                bits |= 1 << position
            self._values[value] = bits
        self._delta.clear()
        self._delta_rows = 0

    # -- reads -----------------------------------------------------------

    def snapshot_view(self) -> BitmapColumnView:
        """An immutable view of the index at the current row count.

        Forces a delta merge so the view's ``values`` dict (a shallow
        copy — the int bitmaps themselves are immutable) covers every
        indexed row; later merges mutate only the live dict.
        """
        with self._lock:
            self._merge_locked()
            return BitmapColumnView(
                self.ordinal, dict(self._values), self._rows, self._pointers
            )

    @property
    def rows(self) -> int:
        with self._lock:
            return self._rows

    def memory_stats(self) -> dict[str, int]:
        with self._lock:
            bitmap_bytes = sum(
                (bits.bit_length() + 7) // 8 for bits in self._values.values()
            )
            return {
                "rows": self._rows,
                "distinct_values": len(self._values) + len(self._delta),
                "bitmap_bytes": bitmap_bytes,
                "pointer_bytes": len(self._pointers) * self._pointers.itemsize,
            }

    # -- durability ------------------------------------------------------

    def export_state(self) -> dict:
        """A checkpointable image (merged; pickled by the PR 5
        checkpoint machinery alongside the partition state)."""
        with self._lock:
            self._merge_locked()
            return {
                "ordinal": self.ordinal,
                "merge_threshold": self.merge_threshold,
                "rows": self._rows,
                "values": dict(self._values),
                "pointers": self._pointers.tobytes(),
            }

    @classmethod
    def from_state(cls, state: dict) -> "PartitionBitmapIndex":
        index = cls(state["ordinal"], state["merge_threshold"])
        index._rows = state["rows"]
        index._values = dict(state["values"])
        pointers: "array[int]" = array("Q")
        pointers.frombytes(state["pointers"])
        index._pointers = pointers
        return index

    def __repr__(self) -> str:
        return (
            f"PartitionBitmapIndex(ordinal={self.ordinal}, rows={self.rows})"
        )


# ----------------------------------------------------------------------
# Predicate compilation: filter condition -> bitmap program
# ----------------------------------------------------------------------
#
# A program is a nested tuple tree:
#   ("pred", PruningPredicate)   one column atom
#   ("and", [programs...])       bitmap intersection
#   ("or", [programs...])        bitmap union
# evaluated per partition against that partition's {ordinal: view} map.


def _compile_atom(expr, ordinals: dict[int, int], indexed: frozenset[int]):
    """One comparison/null-test/IN over an indexed column, or None."""
    from repro.sql.expressions import (
        Attribute,
        EqualTo,
        GreaterThan,
        GreaterThanOrEqual,
        In,
        IsNotNull,
        IsNull,
        LessThan,
        LessThanOrEqual,
        Literal,
    )

    if isinstance(expr, IsNull) and isinstance(expr.child, Attribute):
        ordinal = ordinals.get(expr.child.expr_id)
        if ordinal in indexed:
            return ("pred", PruningPredicate(ordinal, "isnull"))
        return None
    if isinstance(expr, IsNotNull) and isinstance(expr.child, Attribute):
        ordinal = ordinals.get(expr.child.expr_id)
        if ordinal in indexed:
            return ("pred", PruningPredicate(ordinal, "notnull"))
        return None
    if isinstance(expr, In):
        if isinstance(expr.value, Attribute) and all(
            isinstance(option, Literal) for option in expr.options
        ):
            ordinal = ordinals.get(expr.value.expr_id)
            values = tuple(option.value for option in expr.options)
            if ordinal in indexed and values and None not in values:
                return ("pred", PruningPredicate(ordinal, "in", values))
        return None
    ops = {
        EqualTo: "eq",
        LessThan: "lt",
        LessThanOrEqual: "le",
        GreaterThan: "gt",
        GreaterThanOrEqual: "ge",
    }
    op = ops.get(type(expr))
    if op is None:
        return None
    flipped = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq"}
    left, right = expr.left, expr.right
    if isinstance(left, Attribute) and isinstance(right, Literal):
        attr, literal = left, right
    elif isinstance(right, Attribute) and isinstance(left, Literal):
        attr, literal, op = right, left, flipped[op]
    else:
        return None
    ordinal = ordinals.get(attr.expr_id)
    if ordinal not in indexed or literal.value is None:
        return None
    return ("pred", PruningPredicate(ordinal, op, (literal.value,)))


def _compile_node(expr, ordinals: dict[int, int], indexed: frozenset[int]):
    """Compile one boolean subtree; every leaf must be indexable."""
    from repro.sql.expressions import And, Or

    if isinstance(expr, And) or isinstance(expr, Or):
        left = _compile_node(expr.left, ordinals, indexed)
        right = _compile_node(expr.right, ordinals, indexed)
        if left is None or right is None:
            return None
        tag = "and" if isinstance(expr, And) else "or"
        return (tag, [left, right])
    return _compile_atom(expr, ordinals, indexed)


def compile_bitmap_program(condition, attrs, indexed: frozenset[int]):
    """Split ``condition`` into a bitmap program plus a residual.

    Returns ``(program, covered, residual)``: ``program`` is the
    AND of every conjunct that compiles fully against the ``indexed``
    storage ordinals (``None`` when no conjunct does), ``covered`` /
    ``residual`` are the corresponding conjunct expression lists. Rows
    selected by the program still need the residual re-checked above
    the fetch — exactly the zone-map soundness split.
    """
    from repro.sql.expressions import split_conjuncts

    ordinals = {a.expr_id: i for i, a in enumerate(attrs)}
    covered: list = []
    residual: list = []
    programs: list = []
    for conjunct in split_conjuncts(condition):
        node = _compile_node(conjunct, ordinals, indexed)
        if node is None:
            residual.append(conjunct)
        else:
            covered.append(conjunct)
            programs.append(node)
    if not programs:
        return None, covered, residual
    program = programs[0] if len(programs) == 1 else ("and", programs)
    return program, covered, residual


def evaluate_program(
    program, views: "dict[int, BitmapColumnView]"
) -> int | None:
    """Evaluate a bitmap program against one partition's views.

    Returns the selected-row bitmap, or ``None`` when any atom is
    unsupported at this partition (missing view, value/literal type
    mismatch) — the caller must then reject the bitmap plan outright;
    a partial answer would be unsound.
    """
    tag = program[0]
    if tag == "pred":
        pred: PruningPredicate = program[1]
        view = views.get(pred.ordinal)
        if view is None:
            return None
        return view.eval_atom(pred)
    bits = None
    for child in program[1]:
        child_bits = evaluate_program(child, views)
        if child_bits is None:
            return None
        if bits is None:
            bits = child_bits
        elif tag == "and":
            bits &= child_bits
        else:
            bits |= child_bits
    return bits


def program_ordinals(program) -> frozenset[int]:
    """Every storage ordinal a program touches (for EXPLAIN output)."""
    if program[0] == "pred":
        return frozenset((program[1].ordinal,))
    out: frozenset[int] = frozenset()
    for child in program[1]:
        out |= program_ordinals(child)
    return out


__all__ = [
    "BitmapColumnView",
    "DEFAULT_MERGE_THRESHOLD",
    "PartitionBitmapIndex",
    "compile_bitmap_program",
    "evaluate_program",
    "iter_bits",
    "program_ordinals",
]
