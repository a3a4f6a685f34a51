"""Cancellation-poll coverage (rules CP001–CP002).

Cooperative cancellation (DESIGN.md §12) only works if every code path
that can run for a partition-scale amount of time polls the query
context. The poll sites installed by PR 6 — driver retry loops,
shuffle fetch, codegen chunk boundaries — are conventions, and a new
loop added to any of those modules silently escapes the deadline.
These rules make the obligation explicit:

* a module is **poll-obligated** when its path ends with one of the
  :data:`POLL_OBLIGATED` suffixes or its source carries a standalone
  ``# analysis: poll-obligated`` comment; a class is poll-obligated
  when the marker sits on its ``class`` line;
* **CP001** — inside obligated code, a ``while`` loop, or a ``for``
  loop over a partition/batch-scale iterable (name heuristics in
  :data:`SCALE_HINTS`), whose body neither polls nor calls a
  same-module function that polls (one level deep). Generator
  functions are exempt: a generator runs inside its *consumer's* loop,
  and the consumer's chunk boundary is the poll site (the PR 6
  per-row-cost decision). A ``while`` loop whose every call is a pure
  builtin (``isinstance`` / ``getattr`` / ``len`` …) is exempt too:
  pointer-chasing walks like the scheduler's exception-cause-chain
  scans cannot block and are bounded by the structure they traverse;
* **CP002** — a poll-obligated *module* with no poll call anywhere:
  the obligation is dead, not merely incomplete.

A poll is any call to ``check_cancelled()`` or a ``.check()`` /
``.check_cancelled()`` method (``query.check()``, ``clock.check()``).
"""

from __future__ import annotations

import ast

from repro.analysis.program import ParsedModule, Program
from repro.analysis.report import Violation

#: Path suffixes of the modules the PR 6 design made poll-obligated.
#: Both shuffle media drain through ``engine/shuffle.py``'s one loop.
POLL_OBLIGATED = (
    "engine/scheduler.py",
    "engine/shuffle.py",
    "cluster/backend.py",
    "cluster/liveness.py",
    "codegen/compiler.py",
)

#: Substrings marking an iterable as partition/batch-scale. A ``for``
#: loop is only a CP001 candidate when its iterable's source text
#: mentions one of these (loops over a handful of predicates or
#: config entries are not poll obligations).
SCALE_HINTS = (
    "partition", "batch", "snapshot", "split", "record", "chunk",
    "candidate", "future", "pending", "bits",
)

_POLL_NAMES = frozenset({"check", "check_cancelled"})

#: Pure builtins that can neither block nor run unbounded work. A
#: ``while`` loop calling only these is structural traversal, not a
#: poll obligation.
_PURE_CALLS = frozenset(
    {"isinstance", "issubclass", "getattr", "hasattr", "len", "id",
     "hash", "type", "repr", "str", "int", "float", "bool", "abs",
     "min", "max", "tuple", "frozenset", "format"}
)


def _only_pure_calls(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if not (isinstance(func, ast.Name) and func.id in _PURE_CALLS):
            return False
    return True


def _is_poll(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "check_cancelled"
    if isinstance(func, ast.Attribute):
        return func.attr in _POLL_NAMES
    return False


def _called_names(node: ast.AST) -> set[str]:
    """Bare names of functions/methods called anywhere under ``node``."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                names.add(sub.func.id)
            elif isinstance(sub.func, ast.Attribute):
                names.add(sub.func.attr)
    return names


def _polls_directly(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call) and _is_poll(sub) for sub in ast.walk(node)
    )


def _is_generator(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not func:
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _scale_iterable(loop: ast.For, module: ParsedModule) -> bool:
    try:
        text = ast.unparse(loop.iter).lower()
    except ValueError:  # pragma: no cover - unparse is total on parses
        return False
    return any(hint in text for hint in SCALE_HINTS)


class _ModuleIndex:
    """Per-module map: function/method name → polls directly?"""

    def __init__(self, module: ParsedModule):
        self.polls: dict[str, bool] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.polls[node.name] = self.polls.get(node.name, False) or (
                    _polls_directly(node)
                )

    def any_callee_polls(self, names: set[str]) -> bool:
        return any(self.polls.get(name, False) for name in names)


def _obligated_functions(
    module: ParsedModule, whole_module: bool
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function whose body carries the poll obligation."""
    found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    marked_classes = module.marked_classes("poll-obligated")
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if whole_module:
                found.append(node)
        elif isinstance(node, ast.ClassDef):
            if whole_module or node.name in marked_classes:
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        found.append(stmt)
    return found


def _check_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ParsedModule,
    index: _ModuleIndex,
    out: list[Violation],
) -> None:
    if _is_generator(func):
        return
    # Nested defs carry their own obligation only through the generator
    # exemption; walk them too (closures run on the same thread).
    for node in ast.walk(func):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        if isinstance(node, ast.For) and not _scale_iterable(node, module):
            continue
        if isinstance(node, ast.While) and _only_pure_calls(node):
            continue
        enclosing = _enclosing_function(func, node)
        if enclosing is not None and enclosing is not func and _is_generator(
            enclosing
        ):
            continue
        body = ast.Module(body=node.body, type_ignores=[])
        if _polls_directly(body):
            continue
        if index.any_callee_polls(_called_names(body)):
            continue
        kind = "while" if isinstance(node, ast.While) else "for"
        module.report(
            out, "CP001", node.lineno,
            f"{kind} loop in poll-obligated {func.name}() never polls "
            "cancellation (add check_cancelled() / query.check(), or "
            "make a callee poll)",
        )


def _enclosing_function(
    root: ast.AST, target: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """The innermost function definition containing ``target``."""
    result: list[ast.FunctionDef | ast.AsyncFunctionDef | None] = [None]

    def visit(node: ast.AST,
              current: ast.FunctionDef | ast.AsyncFunctionDef | None) -> bool:
        if node is target:
            result[0] = current
            return True
        for child in ast.iter_child_nodes(node):
            inner = current
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child
            if visit(child, inner):
                return True
        return False

    visit(root, root if isinstance(
        root, (ast.FunctionDef, ast.AsyncFunctionDef)) else None)
    return result[0]


def check_program(program: Program) -> list[Violation]:
    violations: list[Violation] = []
    for module in program:
        normalized = module.path.replace("\\", "/")
        whole_module = any(
            normalized.endswith(suffix) for suffix in POLL_OBLIGATED
        ) or module.module_marked("poll-obligated")
        marked_classes = module.marked_classes("poll-obligated")
        if not whole_module and not marked_classes:
            continue
        index = _ModuleIndex(module)
        if whole_module and not any(index.polls.values()):
            module.report(
                violations, "CP002", 1,
                "poll-obligated module contains no cancellation poll "
                "anywhere (check_cancelled / .check)",
            )
        seen: set[int] = set()
        for func in _obligated_functions(module, whole_module):
            if id(func) in seen:
                continue
            seen.add(id(func))
            _check_function(func, module, index, violations)
    return violations
