"""Pruning predicates: the prunable conjuncts of a filter condition.

:func:`extract_pruning_predicates` turns a condition into
``column <op> literal(s)`` atoms that the zone maps
(:meth:`repro.stats.ZoneMap.may_match`) and the bitmap indexes
(:mod:`repro.index.bitmap`) can decide without reading a row. Sound by
construction: a conjunct the analysis does not recognize is dropped,
never pruned on, and the filter above the scan re-checks every row.
"""

from __future__ import annotations

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
    split_conjuncts,
)

#: Pruning predicate operators understood by :meth:`ZoneMap.may_match`.
_COMPARISONS = ("eq", "in", "lt", "le", "gt", "ge", "isnull", "notnull")


class PruningPredicate:
    """One prunable conjunct: ``column <op> literal(s)``."""

    __slots__ = ("ordinal", "op", "values")

    def __init__(self, ordinal: int, op: str, values: tuple = ()):
        if op not in _COMPARISONS:
            raise ValueError(f"unknown pruning operator {op!r}")
        self.ordinal = ordinal
        self.op = op
        self.values = values

    def with_ordinal(self, ordinal: int) -> "PruningPredicate":
        return PruningPredicate(ordinal, self.op, self.values)

    def __repr__(self) -> str:
        if self.op in ("isnull", "notnull"):
            return f"#{self.ordinal} {self.op}"
        shown = self.values[0] if self.op != "in" else list(self.values)
        return f"#{self.ordinal} {self.op} {shown!r}"


def extract_pruning_predicates(condition, attrs) -> list[PruningPredicate]:
    """The prunable conjuncts of ``condition`` against ``attrs``.

    Recognizes ``attr <cmp> literal`` (either operand order), ``attr IN
    (literals)``, and ``attr IS [NOT] NULL``. Conjuncts referencing
    NULL literals or non-attribute operands are ignored (never pruned
    on), keeping the analysis trivially sound.
    """
    ordinals = {a.expr_id: i for i, a in enumerate(attrs)}
    flipped = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq"}
    ops = {
        EqualTo: "eq",
        LessThan: "lt",
        LessThanOrEqual: "le",
        GreaterThan: "gt",
        GreaterThanOrEqual: "ge",
    }

    out: list[PruningPredicate] = []
    for conjunct in split_conjuncts(condition):
        if isinstance(conjunct, IsNull) and isinstance(conjunct.child, Attribute):
            ordinal = ordinals.get(conjunct.child.expr_id)
            if ordinal is not None:
                out.append(PruningPredicate(ordinal, "isnull"))
            continue
        if isinstance(conjunct, IsNotNull) and isinstance(conjunct.child, Attribute):
            ordinal = ordinals.get(conjunct.child.expr_id)
            if ordinal is not None:
                out.append(PruningPredicate(ordinal, "notnull"))
            continue
        if isinstance(conjunct, In):
            if isinstance(conjunct.value, Attribute) and all(
                isinstance(o, Literal) for o in conjunct.options
            ):
                ordinal = ordinals.get(conjunct.value.expr_id)
                values = tuple(o.value for o in conjunct.options)
                if ordinal is not None and values and None not in values:
                    out.append(PruningPredicate(ordinal, "in", values))
            continue
        op = ops.get(type(conjunct))
        if op is None:
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, Attribute) and isinstance(right, Literal):
            attr, literal, final_op = left, right, op
        elif isinstance(right, Attribute) and isinstance(left, Literal):
            attr, literal, final_op = right, left, flipped[op]
        else:
            continue
        ordinal = ordinals.get(attr.expr_id)
        if ordinal is None or literal.value is None:
            continue
        out.append(PruningPredicate(ordinal, final_op, (literal.value,)))
    return out
