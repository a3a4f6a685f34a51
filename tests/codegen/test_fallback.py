"""Codegen fallback: unsupported expressions must degrade to the
interpreted path — logged and counted, never wrong and never fatal."""

from __future__ import annotations

import logging

import pytest

from repro import codegen
from repro.errors import CodegenError
from repro.sql import expressions as E
from repro.sql.functions import col
from repro.sql.types import BooleanType, LongType, StringType


class OpaqueExpression(E.Expression):
    """An expression the compiler has no lowering for."""

    def __init__(self, ordinal: int):
        self.ordinal = ordinal
        self.children = ()

    @property
    def resolved(self) -> bool:
        return True

    def data_type(self):
        return BooleanType()

    def eval(self, row: tuple):
        return row[self.ordinal] is not None and row[self.ordinal] > 2

    def __repr__(self) -> str:
        return f"opaque[{self.ordinal}]"


ROWS = [(i, f"n{i}") for i in range(6)] + [(None, None)]


def test_unsupported_node_raises_codegen_error():
    with pytest.raises(CodegenError):
        codegen.compile_predicate(OpaqueExpression(0))


def test_predicate_fn_falls_back_and_logs(caplog):
    codegen.reset_stats()
    with caplog.at_level(logging.WARNING, logger="repro.codegen"):
        fn = codegen.predicate_fn(OpaqueExpression(0))
    assert [fn(r) for r in ROWS] == [OpaqueExpression(0).eval(r) for r in ROWS]
    stats = codegen.stats()
    assert stats.fallbacks == 1
    assert stats.last_error is not None
    assert any("fallback" in message for message in caplog.messages)


def test_non_literal_like_falls_back():
    codegen.reset_stats()
    # LIKE with a non-literal pattern can't precompile its regex; the
    # wrapper must hand back the interpreted evaluator.
    expr = E.Like(
        E.BoundReference(1, StringType(), "name"),
        E.BoundReference(1, StringType(), "name"),
    )
    fn = codegen.value_fn(expr)
    assert codegen.stats().fallbacks == 1
    for row in ROWS:
        assert fn(row) == expr.eval(row)


def test_try_filter_project_kernel_returns_none_when_unsupported():
    codegen.reset_stats()
    assert codegen.try_filter_project_kernel(OpaqueExpression(0), None) is None
    assert codegen.stats().fallbacks == 1
    # Both sides empty is a contract violation, not a fallback.
    assert codegen.try_filter_project_kernel(None, None) is None


def test_disabled_codegen_never_compiles():
    codegen.reset_stats()
    pred = E.GreaterThan(E.BoundReference(0, LongType(), "id"), E.Literal(1))
    fn = codegen.predicate_fn(pred, enabled=False)
    assert codegen.stats().compiled == 0
    assert [fn(r) for r in ROWS] == [pred.eval(r) for r in ROWS]
    assert codegen.try_filter_project_kernel(pred, None) is not None


def test_query_with_unsupported_filter_still_correct(indexed_session, caplog):
    """End to end: a FilterExec whose predicate contains a node the
    compiler rejects must produce interpreted-identical results while
    recording the fallback."""
    session = indexed_session
    from repro.sql.column import Column

    rows = [(i, f"u{i % 3}") for i in range(30)] + [(99, None)]
    df = session.create_dataframe(rows, [("id", "long"), ("tag", "string")])
    # tag LIKE tag: the compiled lowering refuses non-literal patterns,
    # so FilterExec must run this predicate interpreted.
    condition = Column(E.Like(col("tag").expr, col("tag").expr))
    codegen.reset_stats()
    with caplog.at_level(logging.WARNING, logger="repro.codegen"):
        out = df.filter(condition).collect_tuples()
    assert sorted(out) == sorted(r for r in rows if r[1] is not None)
    assert codegen.stats().fallbacks >= 1
    assert any("fallback" in message for message in caplog.messages)
