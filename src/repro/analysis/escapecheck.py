"""Process-boundary escape analysis (rules XP001–XP003).

The PR 7 task codec ships closures and leaf data into worker
processes; PR 8 ships bitmap arrangements inside partition snapshots
over shared memory. Two invariants keep that sound:

* shipped objects must be *plain data* — a lock, a thread, or an open
  file handle inside a shipped attribute either refuses to pickle (at
  best) or arrives as a dead replica that silently guards nothing;
* worker-side code must treat shared-memory views as read-only — the
  driver owns mutation, and a worker-side write is invisible
  corruption of another process's snapshot.

Rules:

* **XP001** — a class marked ``# analysis: shipped`` (its instances
  cross the codec boundary) whose ``__init__`` or class body creates a
  lock/condition/thread (``threading.*``), an open file
  (``open(...)``), or a socket and stores it on ``self``;
* **XP002** — worker-side code (``cluster/worker.py`` plus any module
  or class marked ``# analysis: worker-side``) calling a mutating
  method on, or assigning an attribute of, a name that denotes a
  shared view (contains ``view``, ``snapshot``, or ``batches``);
* **XP003** — worker-side code calling a driver-only singleton
  factory (:data:`DRIVER_SINGLETONS`): the worker would operate on a
  process-local copy that silently diverges from the driver's.
"""

from __future__ import annotations

import ast

from repro.analysis.program import MUTATORS, ParsedModule, Program
from repro.analysis.report import Violation

#: Constructors a shipped class must not store.
_FORBIDDEN_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore",
     "BoundedSemaphore", "Thread", "open", "socket", "Popen"}
)

#: Receiver-name substrings that denote shared-memory views.
_VIEW_HINTS = ("view", "snapshot", "batches")

#: Driver-resident singleton factories a worker must never call.
DRIVER_SINGLETONS = frozenset({"bitmap_registry"})

#: Modules that are worker-side by construction.
_WORKER_SUFFIXES = ("cluster/worker.py",)


def _factory_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _check_shipped_class(module: ParsedModule, cls: ast.ClassDef,
                         out: list[Violation]) -> None:
    class_body = set(map(id, cls.body))
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        stores_on_self = any(
            isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            for t in node.targets
        )
        if not stores_on_self and id(node) not in class_body:
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        name = _factory_name(value)
        if name in _FORBIDDEN_FACTORIES:
            module.report(
                out, "XP001", node.lineno,
                f"shipped class {cls.name} stores a {name}() — locks, "
                "threads, and handles do not survive the codec boundary",
            )


def _receiver_text(node: ast.expr) -> str | None:
    try:
        return ast.unparse(node).lower()
    except ValueError:  # pragma: no cover
        return None


def _looks_like_view(text: str | None) -> bool:
    return text is not None and any(h in text for h in _VIEW_HINTS)


def _check_worker_scope(module: ParsedModule, root: ast.AST, scope: str,
                        out: list[Violation]) -> None:
    for node in ast.walk(root):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and _looks_like_view(
                    _receiver_text(target.value)
                ):
                    module.report(
                        out, "XP002", node.lineno,
                        f"{scope} assigns {ast.unparse(target)} — shared "
                        "views are read-only on the worker side",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
                if _looks_like_view(_receiver_text(func.value)):
                    module.report(
                        out, "XP002", node.lineno,
                        f"{scope} calls {ast.unparse(func)}() — shared "
                        "views are read-only on the worker side",
                    )
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in DRIVER_SINGLETONS:
                module.report(
                    out, "XP003", node.lineno,
                    f"{scope} calls {name}() — a driver-only singleton; "
                    "the worker's copy would silently diverge",
                )


def check_program(program: Program) -> list[Violation]:
    violations: list[Violation] = []
    for module in program:
        normalized = module.path.replace("\\", "/")
        for cls_name in module.marked_classes("shipped"):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == cls_name:
                    _check_shipped_class(module, node, violations)
        worker_module = any(
            normalized.endswith(s) for s in _WORKER_SUFFIXES
        ) or module.module_marked("worker-side")
        if worker_module:
            _check_worker_scope(
                module, module.tree, f"worker-side module {normalized}",
                violations,
            )
            continue
        for cls_name in module.marked_classes("worker-side"):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == cls_name:
                    _check_worker_scope(
                        module, node, f"worker-side class {cls_name}",
                        violations,
                    )
    return violations
