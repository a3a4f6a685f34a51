"""Expression → Python source compiler (the whole-stage-codegen analogue).

A *bound* expression tree (one whose leaves are
:class:`~repro.sql.expressions.BoundReference` ordinals) is lowered to
a straight-line sequence of Python statements operating on a row tuple
``r`` and called per row without any tree walking. Every literal except
``None``/``True``/``False`` is hoisted into the ``_kN`` constant pool,
so the emitted source — the kernel's *template* — depends only on the
expression's structure and ordinals; :func:`_assemble` parses,
validates and compiles each template once per process and instantiates
every later kernel of that shape from the cached code object with its
own constants. SQL three-valued logic is preserved exactly: the
generated code branches on ``None`` in the same order the interpreter
does, so a compiled kernel never evaluates a sub-expression the
interpreter would have skipped.

Four kernel shapes are produced:

* :func:`compile_predicate` / :func:`compile_projection` — per-row
  functions (used by join residual conditions and sort keys);
* :func:`compile_filter_project_kernel` — the fused batch kernel: one
  generated loop applying filter + projection to a chunk of rows and
  returning the surviving output tuples (Spark's fused
  ``WholeStageCodegen(Filter, Project)`` stage);
* :func:`compile_key_extractor` — composite grouping / join key
  extraction, optionally folding a NULL component into ``None`` (the
  SQL join-key semantics).

Every ``try_*`` / ``*_fn`` wrapper falls back to the interpreted
``Expression.eval`` path on *any* compile error, records the fallback
in :data:`STATS`, and logs it — an unsupported node costs speed, never
correctness (and never disturbs fault-injection behaviour, because the
interpreted operators are what the chaos suite certifies).
"""

from __future__ import annotations

import ast
import builtins
import itertools
import re
import threading
import types
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

import logging

from repro.analysis.codegen_rules import mutable_consts, validate_tree
from repro.errors import FAIL_STOP, CodegenError
from repro.sql import expressions as E

logger = logging.getLogger("repro.codegen")

#: Rows handed to a fused kernel per call; bounds peak memory while
#: keeping the per-chunk Python-loop overhead negligible.
DEFAULT_CHUNK_ROWS = 1024

#: Kernel templates kept per process, oldest evicted first. A template
#: is a few KB (source key + code object); the SNB reads, the operator
#: matrix and the serving mix together need well under a hundred.
TEMPLATE_CAPACITY = 512


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


@dataclass
class CodegenStats:
    """Counters for compiled templates, cache hits and fallbacks."""

    #: Code objects actually compiled, i.e. template-cache misses.
    compiled: int = 0
    fallbacks: int = 0
    last_error: str | None = None
    fallback_kinds: dict[str, int] = field(default_factory=dict)
    #: Kernels instantiated from an already compiled template.
    cache_hits: int = 0
    #: Templates cached right now (at most :data:`TEMPLATE_CAPACITY`).
    templates: int = 0


STATS = CodegenStats()
#: Validated code object per (template source, validator profile).
_TEMPLATES: dict[tuple, types.CodeType] = {}
#: Guards :data:`STATS` and :data:`_TEMPLATES`; a template miss parses,
#: validates, compiles and publishes while holding it.
_lock = threading.Lock()
#: Kernels read no globals (CG001), so every instance shares one dict.
_KERNEL_GLOBALS = {"__builtins__": builtins}


def stats() -> CodegenStats:
    """A point-in-time copy of the global codegen counters."""
    with _lock:
        return replace(
            STATS,
            fallback_kinds=dict(STATS.fallback_kinds),
            templates=len(_TEMPLATES),
        )


def reset_stats() -> None:
    """Zero the counters; compiled templates stay cached."""
    with _lock:
        STATS.compiled = STATS.fallbacks = STATS.cache_hits = 0
        STATS.last_error = None
        STATS.fallback_kinds.clear()


def _note_fallback(kind: str, expr: object, exc: BaseException) -> None:
    with _lock:
        STATS.fallbacks += 1
        STATS.last_error = f"{kind}: {exc}"
        STATS.fallback_kinds[kind] = STATS.fallback_kinds.get(kind, 0) + 1
    logger.warning(
        "codegen fallback (%s) for %r: %s — using the interpreted path",
        kind,
        expr,
        exc,
    )


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------


class _Emitter:
    """Accumulates indented statements, temps, and a constant pool."""

    def __init__(self, refs: Sequence[str] | None = None) -> None:
        self.lines: list[str] = []
        self.depth = 1
        self._temps = itertools.count(1)
        self.consts: dict[str, Any] = {}
        #: Source name per bound ordinal; ``None`` reads the row tuple
        #: ``r``. A decoder sets it to the locals it decodes into.
        self.refs = refs

    def ref(self, ordinal: int) -> str:
        return f"r[{ordinal}]" if self.refs is None else self.refs[ordinal]

    def temp(self) -> str:
        return f"t{next(self._temps)}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def const(self, value: Any) -> str:
        """Bind ``value`` into the function via a default argument."""
        name = f"_k{len(self.consts)}"
        self.consts[name] = value
        return name

    class _Block:
        def __init__(self, emitter: "_Emitter") -> None:
            self.emitter = emitter

        def __enter__(self) -> None:
            self.emitter.depth += 1

        def __exit__(self, *exc: Any) -> None:
            self.emitter.depth -= 1

    def block(self) -> "_Emitter._Block":
        return _Emitter._Block(self)


def _unsupported(expr: E.Expression, why: str) -> CodegenError:
    return CodegenError(f"cannot compile {type(expr).__name__} ({why}): {expr!r}")


def _gen(expr: E.Expression, em: _Emitter) -> str:
    """Emit statements evaluating ``expr``; returns the result atom.

    The atom is either a temp variable, a tuple index ``r[i]``, a const
    name or ``None``/``True``/``False`` — always side-effect free and
    cheap to re-read.
    """
    if isinstance(expr, E.Alias):
        return _gen(expr.child, em)

    if isinstance(expr, E.BoundReference):
        return em.ref(expr.ordinal)

    if isinstance(expr, E.Literal):
        value = expr.value
        # NULL and the booleans select 3VL branches, so they are part of
        # the kernel's shape; every other literal is per-instance data.
        if value is None or isinstance(value, bool):
            return repr(value)
        return em.const(value)

    if isinstance(expr, E.Not):
        a = _gen(expr.child, em)
        v = em.temp()
        em.line(f"{v} = (not {a}) if {a} is not None else None")
        return v

    if isinstance(expr, E.UnaryMinus):
        a = _gen(expr.child, em)
        v = em.temp()
        em.line(f"{v} = -({a}) if {a} is not None else None")
        return v

    if isinstance(expr, E.IsNull):
        a = _gen(expr.child, em)
        v = em.temp()
        em.line(f"{v} = {a} is None")
        return v

    if isinstance(expr, E.IsNotNull):
        a = _gen(expr.child, em)
        v = em.temp()
        em.line(f"{v} = {a} is not None")
        return v

    if isinstance(expr, E.Cast):
        caster = E.Cast._casters.get(expr.dtype.name)
        if caster is None:
            raise _unsupported(expr, f"no caster for {expr.dtype.name}")
        a = _gen(expr.child, em)
        fn = em.const(caster)
        v = em.temp()
        em.line(f"if {a} is None:")
        with em.block():
            em.line(f"{v} = None")
        em.line("else:")
        with em.block():
            em.line("try:")
            with em.block():
                em.line(f"{v} = {fn}({a})")
            em.line("except (TypeError, ValueError):")
            with em.block():
                em.line(f"{v} = None")
        return v

    if isinstance(expr, (E.BinaryArithmetic, E.BinaryComparison)):
        return _gen_binary(expr, em)

    if isinstance(expr, E.And):
        return _gen_and_or(expr, em, short="False", both="True")

    if isinstance(expr, E.Or):
        return _gen_and_or(expr, em, short="True", both="False")

    if isinstance(expr, E.In):
        return _gen_in(expr, em)

    if isinstance(expr, E.Like):
        return _gen_like(expr, em)

    if isinstance(expr, E.CaseWhen):
        v = em.temp()
        _gen_case(expr, 0, v, em)
        return v

    if isinstance(expr, E.Coalesce):
        v = em.temp()
        _gen_coalesce(expr.children, 0, v, em)
        return v

    if isinstance(expr, E.ScalarFunction):
        v = em.temp()
        fn = em.const(expr.fn)
        _gen_scalar_call(expr.children, 0, [], fn, v, em)
        return v

    raise _unsupported(expr, "unsupported node type")


def _gen_binary(expr: E.BinaryExpression, em: _Emitter) -> str:
    """Null-propagating infix op; the right side is only evaluated when
    the left is non-NULL, matching the interpreter's laziness."""
    a = _gen(expr.left, em)
    v = em.temp()
    em.line(f"if {a} is None:")
    with em.block():
        em.line(f"{v} = None")
    em.line("else:")
    with em.block():
        b = _gen(expr.right, em)
        em.line(f"if {b} is None:")
        with em.block():
            em.line(f"{v} = None")
        em.line("else:")
        with em.block():
            if isinstance(expr, E.Divide):
                em.line(f"{v} = None if {b} == 0 else {a} / {b}")
            elif isinstance(expr, E.Modulo):
                em.line(f"{v} = None if {b} == 0 else {a} % {b}")
            else:
                op = getattr(type(expr), "py_op", None)
                if op is None:
                    raise _unsupported(expr, "no py_op token")
                em.line(f"{v} = {a} {op} {b}")
    return v


def _gen_and_or(expr: E.BinaryExpression, em: _Emitter, short: str, both: str) -> str:
    """Kleene AND/OR: ``short`` is the dominating value (False for AND,
    True for OR), ``both`` the value when neither side dominates."""
    a = _gen(expr.left, em)
    v = em.temp()
    em.line(f"if {a} is {short}:")
    with em.block():
        em.line(f"{v} = {short}")
    em.line("else:")
    with em.block():
        b = _gen(expr.right, em)
        em.line(f"if {b} is {short}:")
        with em.block():
            em.line(f"{v} = {short}")
        em.line(f"elif {a} is None or {b} is None:")
        with em.block():
            em.line(f"{v} = None")
        em.line("else:")
        with em.block():
            em.line(f"{v} = {both}")
    return v


def _gen_in(expr: E.In, em: _Emitter) -> str:
    if not all(isinstance(o, E.Literal) for o in expr.options):
        raise _unsupported(expr, "non-literal IN list")
    values = [o.value for o in expr.options]  # type: ignore[union-attr]
    saw_null = any(v is None for v in values)
    members = em.const(frozenset(v for v in values if v is not None))
    a = _gen(expr.value, em)
    v = em.temp()
    miss = "None" if saw_null else "False"
    em.line(f"if {a} is None:")
    with em.block():
        em.line(f"{v} = None")
    em.line("else:")
    with em.block():
        em.line(f"{v} = True if {a} in {members} else {miss}")
    return v


def _gen_like(expr: E.Like, em: _Emitter) -> str:
    pattern = expr.right
    if not (isinstance(pattern, E.Literal) and isinstance(pattern.value, str)):
        raise _unsupported(expr, "non-literal LIKE pattern")
    regex = "^" + re.escape(pattern.value).replace("%", ".*").replace("_", ".") + "$"
    matcher = em.const(re.compile(regex).match)
    a = _gen(expr.left, em)
    v = em.temp()
    em.line(f"{v} = None if {a} is None else ({matcher}({a}) is not None)")
    return v


def _gen_case(expr: E.CaseWhen, index: int, v: str, em: _Emitter) -> None:
    if index == len(expr.branches):
        if expr.else_value is not None:
            atom = _gen(expr.else_value, em)
            em.line(f"{v} = {atom}")
        else:
            em.line(f"{v} = None")
        return
    cond, value = expr.branches[index]
    c = _gen(cond, em)
    em.line(f"if {c} is True:")
    with em.block():
        atom = _gen(value, em)
        em.line(f"{v} = {atom}")
    em.line("else:")
    with em.block():
        _gen_case(expr, index + 1, v, em)


def _gen_coalesce(
    children: Sequence[E.Expression], index: int, v: str, em: _Emitter
) -> None:
    if index == len(children):
        em.line(f"{v} = None")
        return
    atom = _gen(children[index], em)
    em.line(f"if {atom} is not None:")
    with em.block():
        em.line(f"{v} = {atom}")
    em.line("else:")
    with em.block():
        _gen_coalesce(children, index + 1, v, em)


def _gen_scalar_call(
    args: Sequence[E.Expression],
    index: int,
    atoms: list[str],
    fn: str,
    v: str,
    em: _Emitter,
) -> None:
    """Null-in/null-out call: later args are not evaluated once an
    earlier one came up NULL (interpreter argument order preserved)."""
    if index == len(args):
        em.line(f"{v} = {fn}({', '.join(atoms)})")
        return
    atom = _gen(args[index], em)
    em.line(f"if {atom} is None:")
    with em.block():
        em.line(f"{v} = None")
    em.line("else:")
    with em.block():
        _gen_scalar_call(args, index + 1, atoms + [atom], fn, v, em)


# ----------------------------------------------------------------------
# Function assembly
# ----------------------------------------------------------------------


def _check(name: str, problems: Sequence[Any]) -> None:
    if problems:
        raise CodegenError(
            f"kernel {name} failed validation: "
            + "; ".join(f"{p.rule} {p.message}" for p in problems)
        )


def _compile_template(
    name: str, src: str, allowed_builtins: frozenset[str], check_null_guards: bool
) -> types.CodeType:
    """Parse, validate (CG001/3/4) and compile one template. The caller
    holds :data:`_lock`, which also serializes ``ast.parse``."""
    try:
        tree = ast.parse(src)
    except SyntaxError as exc:
        raise CodegenError(f"kernel {name} is unparseable: {exc.msg}") from exc
    _check(
        name,
        validate_tree(
            tree,
            allowed_builtins=allowed_builtins,
            check_null_guards=check_null_guards,
        ),
    )
    scratch: dict[str, Any] = {}
    exec(compile(tree, f"<repro.codegen:{name}>", "exec"), scratch)
    return scratch[name].__code__


def _assemble(
    name: str,
    params: str,
    em: Any,
    allowed_builtins: frozenset[str] = frozenset(),
    check_null_guards: bool = True,
) -> Callable[..., Any]:
    """Instantiate the emitted kernel (``em.lines`` + ``em.consts``).

    The source lists the constants as trailing parameters and holds no
    values, so every kernel of this shape shares it: validation and
    ``compile`` run once per template, and an instance is the cached
    code object plus its own constants as argument defaults (read as
    locals, not globals). Only CG002 depends on the constants, so only
    it runs per instance.
    """
    consts = tuple(em.consts.values())
    _check(name, mutable_consts(consts))
    src = f"def {name}({', '.join((params, *em.consts))}):\n"
    src += "\n".join(em.lines) + "\n"
    key = (src, allowed_builtins, check_null_guards)
    with _lock:
        code = _TEMPLATES.get(key)
        if code is None:
            code = _compile_template(name, src, allowed_builtins, check_null_guards)
            if len(_TEMPLATES) >= TEMPLATE_CAPACITY:
                del _TEMPLATES[next(iter(_TEMPLATES))]
            _TEMPLATES[key] = code
            STATS.compiled += 1
        else:
            STATS.cache_hits += 1
    fn = types.FunctionType(code, _KERNEL_GLOBALS, name, consts or None)
    fn.__codegen_source__ = src
    return fn


def _reinstance(fn: Callable[..., Any], consts: dict[str, Any]) -> Callable[..., Any]:
    """Another instance of kernel ``fn``'s template: each constant named
    in ``consts`` takes the new value, the others keep theirs."""
    code = fn.__code__
    defaults = fn.__defaults__ or ()
    names = code.co_varnames[code.co_argcount - len(defaults) : code.co_argcount]
    values = tuple(consts.get(name, old) for name, old in zip(names, defaults))
    _check(code.co_name, mutable_consts(values))
    with _lock:
        STATS.cache_hits += 1
    out = types.FunctionType(code, _KERNEL_GLOBALS, code.co_name, values or None)
    out.__codegen_source__ = fn.__codegen_source__
    return out


def compile_value(expr: E.Expression) -> Callable[[tuple], Any]:
    """Compile a bound expression to ``fn(row) -> value``."""
    em = _Emitter()
    atom = _gen(expr, em)
    em.line(f"return {atom}")
    return _assemble("_val", "r", em)


def compile_predicate(expr: E.Expression) -> Callable[[tuple], Any]:
    """Compile a bound boolean expression to ``fn(row) -> True|False|None``."""
    return compile_value(expr)


def compile_projection(exprs: Sequence[E.Expression]) -> Callable[[tuple], tuple]:
    """Compile a projection list to ``fn(row) -> output tuple``."""
    em = _Emitter()
    atoms = [_gen(e, em) for e in exprs]
    inner = ", ".join(atoms) + ("," if len(atoms) == 1 else "")
    em.line(f"return ({inner})")
    return _assemble("_proj", "r", em)


def compile_key_extractor(
    exprs: Sequence[E.Expression], null_to_none: bool = False
) -> Callable[[tuple], tuple | None]:
    """Compile composite key extraction.

    ``null_to_none=True`` gives SQL join-key semantics: any NULL
    component collapses the whole key to ``None`` (the row can never
    match). ``False`` keeps NULL components — grouping keys group the
    NULLs together, as the interpreter does.
    """
    em = _Emitter()
    atoms = []
    for expr in exprs:
        atom = _gen(expr, em)
        if null_to_none:
            em.line(f"if {atom} is None:")
            with em.block():
                em.line("return None")
        atoms.append(atom)
    inner = ", ".join(atoms) + ("," if len(atoms) == 1 else "")
    em.line(f"return ({inner})")
    return _assemble("_key", "r", em)


def compile_filter_project_kernel(
    condition: E.Expression | None,
    projections: Sequence[E.Expression] | None,
) -> Callable[[Iterable[tuple]], list[tuple]]:
    """The fused batch kernel: ``kernel(rows) -> surviving out-tuples``.

    One generated loop evaluates the predicate and, for rows where it
    is exactly True, the projection — no per-row function calls at all.
    With ``projections=None`` input rows pass through unchanged; with
    ``condition=None`` every row is projected.
    """
    if condition is None and projections is None:
        raise CodegenError("fused kernel needs a condition or a projection")
    em = _Emitter()
    em.line("out = []")
    em.line("_append = out.append")
    em.line("for r in rows:")
    with em.block():
        if condition is not None:
            pred = _gen(condition, em)
            em.line(f"if {pred} is not True:")
            with em.block():
                em.line("continue")
        if projections is None:
            em.line("_append(r)")
        else:
            atoms = [_gen(e, em) for e in projections]
            inner = ", ".join(atoms) + ("," if len(atoms) == 1 else "")
            em.line(f"_append(({inner}))")
    em.line("return out")
    return _assemble("_fused", "rows", em)


# ----------------------------------------------------------------------
# Fallback-wrapped entry points (what the operators call)
# ----------------------------------------------------------------------


def _try_compile(
    enabled: bool, kind: str, subject: object, build: Callable[..., Any], *args: Any
) -> Callable[..., Any] | None:
    """``build(*args)``, or ``None`` when disabled or after recording
    the compile error as a fallback."""
    if not enabled:
        return None
    try:
        return build(*args)
    except FAIL_STOP:
        raise
    except Exception as exc:  # noqa: BLE001 - any compile error falls back
        _note_fallback(kind, subject, exc)
        return None


def predicate_fn(
    expr: E.Expression | None, enabled: bool = True
) -> Callable[[tuple], Any] | None:
    """Compiled predicate, or the interpreted bound method on failure."""
    if expr is None:
        return None
    return _try_compile(enabled, "predicate", expr, compile_predicate, expr) or expr.eval


def value_fn(expr: E.Expression, enabled: bool = True) -> Callable[[tuple], Any]:
    """Compiled scalar extractor, or the interpreted bound method."""
    return _try_compile(enabled, "value", expr, compile_value, expr) or expr.eval


def projection_fn(
    exprs: Sequence[E.Expression], enabled: bool = True
) -> Callable[[tuple], tuple]:
    fn = _try_compile(enabled, "projection", exprs, compile_projection, exprs)
    if fn is not None:
        return fn
    bound = list(exprs)
    return lambda r: tuple(e.eval(r) for e in bound)


def key_fn(
    exprs: Sequence[E.Expression],
    null_to_none: bool = False,
    enabled: bool = True,
) -> Callable[[tuple], tuple | None]:
    fn = _try_compile(
        enabled, "key", exprs, compile_key_extractor, exprs, null_to_none
    )
    if fn is not None:
        return fn
    bound = list(exprs)
    if null_to_none:
        def interpreted_join_key(r: tuple) -> tuple | None:
            key = tuple(e.eval(r) for e in bound)
            return None if any(v is None for v in key) else key

        return interpreted_join_key
    return lambda r: tuple(e.eval(r) for e in bound)


def try_filter_project_kernel(
    condition: E.Expression | None,
    projections: Sequence[E.Expression] | None,
    enabled: bool = True,
) -> Callable[[Iterable[tuple]], list[tuple]] | None:
    """Fused kernel or ``None`` (caller keeps its row-at-a-time path)."""
    return _try_compile(
        enabled,
        "fused",
        (condition, projections),
        compile_filter_project_kernel,
        condition,
        projections,
    )


def chunked(
    kernel: Callable[[list[tuple]], list[tuple]],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Callable[[Iterator[tuple]], Iterator[tuple]]:
    """Adapt a batch kernel to a lazy per-partition iterator.

    The partition is drained in ``chunk_rows`` slices so downstream
    consumers that stop early (``take``, ``LimitExec``) never force the
    whole partition through the kernel.
    """

    from repro.engine.query import check_cancelled

    def blocks(rows: Iterator[tuple]) -> Iterator[list[tuple]]:
        it = iter(rows)
        while True:
            # Cooperative cancellation poll once per chunk: a served
            # query abandoned mid-kernel stops after the current block
            # rather than pushing the whole partition through. One
            # ContextVar read per chunk_rows rows — noise next to the
            # kernel itself, and a no-op outside the serving layer.
            check_cancelled()
            block = list(islice(it, chunk_rows))
            if not block:
                return
            yield kernel(block)

    # A block's rows reach the consumer from C, not by resuming a
    # generator frame once per row.
    return lambda rows: itertools.chain.from_iterable(blocks(rows))
