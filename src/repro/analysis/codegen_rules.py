"""Validation of generated kernel source before ``exec`` (CG001–CG004).

:mod:`repro.codegen` compiles bound expression trees into Python
functions (the whole-stage-codegen analogue). Because that source is
``exec``'d into the live process, it is held to a far stricter standard
than handwritten code — the emitter's entire vocabulary is known, so
anything outside it is a compiler bug or an injection:

* CG001 — every name the kernel *reads* must be a parameter (including
  the const-pool defaults ``_kN``), a local assigned earlier in the
  kernel, or an explicitly allowed builtin. In particular no global
  reads: a kernel that silently closes over engine state would break
  snapshot isolation and plan caching.
* CG002 — const-pool values must be immutable (no list/dict/set/
  bytearray). A mutable default argument would be shared across every
  invocation of the kernel — mutation in one task would corrupt all.
* CG003 — three-valued logic: any arithmetic/comparison operand that
  is a row field (``r[i]``) or a temp (``tN``) must be dominated by an
  ``is (not) None`` guard. SQL NULL must never reach a Python operator
  that would raise or, worse, compare successfully.
* CG004 — structurally banned constructs: imports, ``global`` /
  ``nonlocal``, nested functions/lambdas/classes, yields/awaits,
  comprehensions, and attribute access other than the bound
  ``out.append``. The emitters never produce these, so their presence
  means the source was not produced by our emitters.

The compiler runs :func:`validate_tree` once per kernel *template*
(the literal-free source every instance of a shape shares), under its
own compile lock, immediately before ``compile``; :func:`mutable_consts`
runs on every instance, because the const pool is the only part of a
kernel that differs between instances. A violation raises
:class:`~repro.errors.CodegenError`, which the ``try_*`` wrappers
translate into interpreter fallback — a kernel that fails validation
can never execute.
"""

from __future__ import annotations

import ast
import threading
from pathlib import Path
from typing import Iterable

from repro.analysis.report import Violation

#: CPython's AST-object constructor tracks recursion depth in
#: interpreter-global state; concurrent ``ast.parse`` calls can trip
#: ``SystemError: AST constructor recursion depth mismatch``. This lock
#: serializes :func:`validate_generated_source` (lint CLI, tests); the
#: engine's kernel path parses under ``repro.codegen``'s compile lock.
_PARSE_LOCK = threading.Lock()

_MUTABLE_CONST_TYPES = (list, dict, set, bytearray)

#: Exception names generated Cast kernels are allowed to catch.
_ALLOWED_EXC_NAMES = frozenset({"TypeError", "ValueError", "ZeroDivisionError"})

_BANNED_NODES: tuple[tuple[type[ast.AST], str], ...] = (
    (ast.Import, "import"),
    (ast.ImportFrom, "import"),
    (ast.Global, "global statement"),
    (ast.Nonlocal, "nonlocal statement"),
    (ast.ClassDef, "class definition"),
    (ast.Lambda, "lambda"),
    (ast.Yield, "yield"),
    (ast.YieldFrom, "yield from"),
    (ast.Await, "await"),
    (ast.ListComp, "comprehension"),
    (ast.SetComp, "comprehension"),
    (ast.DictComp, "comprehension"),
    (ast.GeneratorExp, "generator expression"),
)


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - unparse is total on parsed trees
        return f"<{type(node).__name__}>"


def _guardable(node: ast.expr) -> str | None:
    """Return the canonical key for an operand that needs a NULL guard.

    Row-field reads (``r[...]``, ``row[...]``) and emitter temps
    (``tN``) are nullable; constants, const-pool names and everything
    else are not.
    """
    if isinstance(node, ast.Name):
        name = node.id
        if name.startswith("t") and name[1:].isdigit():
            return name
        return None
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        if node.value.id in ("r", "row"):
            return _unparse(node)
    return None


def _null_test(test: ast.expr) -> tuple[str, bool] | None:
    """``X is None`` → (key(X), True); ``X is not None`` → (key(X), False)."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        key = _guardable(test.left) or _unparse(test.left)
        return key, isinstance(test.ops[0], ast.Is)
    return None


class _Validator:
    def __init__(self, path: str, check_null_guards: bool):
        self.path = path
        self.check_null_guards = check_null_guards
        self.violations: list[Violation] = []
        self.allowed_names: set[str] = set()

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(rule, self.path, getattr(node, "lineno", 1), message)
        )

    # -- structure -------------------------------------------------------

    def validate(self, tree: ast.Module, allowed_builtins: frozenset[str]) -> None:
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        if len(funcs) != 1 or len(tree.body) != 1:
            self._report(
                "CG004",
                tree.body[0] if tree.body else tree,
                "generated module must be exactly one function definition",
            )
            return
        fn = funcs[0]

        params = {a.arg for a in fn.args.args}
        params |= {a.arg for a in fn.args.kwonlyargs}
        self.allowed_names = (
            params
            | set(allowed_builtins)
            | _ALLOWED_EXC_NAMES
            | self._assigned_names(fn)
        )

        for node in ast.walk(fn):
            self._check_banned(node)
            self._check_names(node)
        if self.check_null_guards:
            self._walk_guards(fn.body, frozenset())

    @staticmethod
    def _assigned_names(fn: ast.FunctionDef) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names.add(node.name)
        return names

    def _check_banned(self, node: ast.AST) -> None:
        for node_type, label in _BANNED_NODES:
            if isinstance(node, node_type):
                self._report("CG004", node, f"banned construct: {label}")
                return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if getattr(node, "col_offset", 0) != 0:
                self._report("CG004", node, "banned construct: nested function")
        elif isinstance(node, ast.Attribute):
            if _unparse(node) != "out.append":
                self._report(
                    "CG004",
                    node,
                    f"banned attribute access: {_unparse(node)}",
                )

    def _check_names(self, node: ast.AST) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in self.allowed_names:
                self._report(
                    "CG001",
                    node,
                    f"name {node.id!r} is outside the codegen whitelist "
                    "(possible global capture)",
                )

    # -- null guards (CG003) ---------------------------------------------

    def _walk_guards(self, stmts: list[ast.stmt], known: frozenset[str]) -> None:
        for stmt in stmts:
            self._guard_stmt(stmt, known)

    def _guard_stmt(self, stmt: ast.stmt, known: frozenset[str]) -> None:
        if isinstance(stmt, ast.If):
            test = _null_test(stmt.test)
            self._guard_expr(stmt.test, known)
            if test is not None:
                key, is_none = test
                if is_none:  # if X is None: ... else: X non-null
                    self._walk_guards(stmt.body, known)
                    self._walk_guards(stmt.orelse, known | {key})
                else:  # if X is not None: X non-null ... else: ...
                    self._walk_guards(stmt.body, known | {key})
                    self._walk_guards(stmt.orelse, known)
            else:
                self._walk_guards(stmt.body, known)
                self._walk_guards(stmt.orelse, known)
        elif isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.While):
                self._guard_expr(stmt.test, known)
            else:
                self._guard_expr(stmt.iter, known)
            self._walk_guards(stmt.body, known)
            self._walk_guards(stmt.orelse, known)
        elif isinstance(stmt, ast.Try):
            self._walk_guards(stmt.body, known)
            for handler in stmt.handlers:
                self._walk_guards(handler.body, known)
            self._walk_guards(stmt.orelse, known)
            self._walk_guards(stmt.finalbody, known)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                self._guard_expr(value, known)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._guard_expr(stmt.value, known)
        # pass/continue/break carry no expressions

    def _guard_expr(self, expr: ast.expr, known: frozenset[str]) -> None:
        if isinstance(expr, ast.IfExp):
            test = _null_test(expr.test)
            self._guard_expr(expr.test, known)
            if test is not None:
                key, is_none = test
                if is_none:  # A if X is None else B
                    self._guard_expr(expr.body, known)
                    self._guard_expr(expr.orelse, known | {key})
                else:
                    self._guard_expr(expr.body, known | {key})
                    self._guard_expr(expr.orelse, known)
            else:
                self._guard_expr(expr.body, known)
                self._guard_expr(expr.orelse, known)
            return

        if isinstance(expr, ast.BinOp):
            for operand in (expr.left, expr.right):
                self._require_guard(operand, known)
        elif isinstance(expr, ast.Compare):
            if not all(isinstance(op, (ast.Is, ast.IsNot)) for op in expr.ops):
                for operand in (expr.left, *expr.comparators):
                    self._require_guard(operand, known)

        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._guard_expr(child, known)

    def _require_guard(self, operand: ast.expr, known: frozenset[str]) -> None:
        key = _guardable(operand)
        if key is not None and key not in known:
            self._report(
                "CG003",
                operand,
                f"nullable operand {key!r} used without an `is None` guard",
            )


def mutable_consts(consts: Iterable, path: str = "<generated>") -> list[Violation]:
    """CG002 over one kernel instance's const pool (pool order)."""
    return [
        Violation(
            "CG002",
            path,
            1,
            f"const pool entry _k{index} is mutable ({type(value).__name__})",
        )
        for index, value in enumerate(consts)
        if isinstance(value, _MUTABLE_CONST_TYPES)
    ]


def validate_tree(
    tree: ast.Module,
    *,
    allowed_builtins: frozenset[str] = frozenset(),
    check_null_guards: bool = True,
    path: str = "<generated>",
) -> list[Violation]:
    """CG001/CG003/CG004 over an already parsed kernel (takes no lock)."""
    validator = _Validator(path, check_null_guards)
    validator.validate(tree, allowed_builtins)
    return validator.violations


def validate_generated_source(
    source: str,
    *,
    consts: tuple | list = (),
    allowed_builtins: frozenset[str] = frozenset(),
    check_null_guards: bool = True,
    path: str = "<generated>",
) -> list[Violation]:
    """Validate one emitted kernel; return all violations found."""
    try:
        with _PARSE_LOCK:
            tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Violation(
                "CG004", path, exc.lineno or 1, f"unparseable kernel: {exc.msg}"
            )
        ]
    return mutable_consts(consts, path) + validate_tree(
        tree,
        allowed_builtins=allowed_builtins,
        check_null_guards=check_null_guards,
        path=path,
    )


def check_file(path: str | Path) -> list[Violation]:
    """Validate a ``.gensrc`` file (a captured kernel source) from disk.

    The const pool is not recoverable from a source file, so CG002 is
    only enforced at compile time; everything else applies.
    """
    path = Path(path)
    return validate_generated_source(
        path.read_text(encoding="utf-8"), path=str(path)
    )
