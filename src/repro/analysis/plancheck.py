"""Plan-contract linter for physical operators (rules PC001–PC005).

Every physical operator (a ``ClassDef`` extending ``PhysicalPlan``)
must declare how it moves data with a class-level ``PARTITIONING``
attribute, and the declaration must match what the operator body
actually does to its input RDDs:

* ``"source"``   — materializes partitions itself (scans, local data);
* ``"narrow"``   — per-partition transforms of its children, no data
  movement (filter, project, union);
* ``"exchange"`` — repartitions by key (``partition_by``, ``cogroup``,
  ``reduce_by_key``, ``distinct``, ``sort_by``);
* ``"driver"``   — materializes data on the driver (``collect``,
  ``take``, ``run_job``), the most expensive placement.

The body classification is evidence-based and purely syntactic: the
checker looks at which RDD methods the class calls. Driver evidence
dominates exchange evidence dominates narrow. ``parallelize`` alone is
*not* driver evidence — re-distributing locally built rows is how
sources and limits hand data back to the engine.

On top of the placement contract, three EXPLAIN-marker rules keep the
adaptive/pruning machinery honest:

* PC003 — an operator that prunes (defines ``apply_pruning``) must
  record its decisions (``record_scan``) *and* surface them in
  ``describe()`` (one of the ``zone_pruned`` / ``key_routed`` /
  ``batches_pruned`` markers), otherwise EXPLAIN lies about work done;
* PC004 — an operator that makes a runtime decision (assigns
  ``self.decision``) must echo it from ``describe()``;
* PC005 — a class that produces key placement with ``partition_by``
  must consume it partition-locally (``map_partitions_with_index``);
  producing placement and then discarding it is a silent full shuffle
  wasted.
"""

from __future__ import annotations

import ast

from repro.analysis.program import ParsedModule, Program, base_names
from repro.analysis.report import Violation

PLACEMENTS = frozenset({"source", "narrow", "exchange", "driver"})

#: RDD calls that imply a repartition / data exchange.
EXCHANGE_CALLS = frozenset(
    {"partition_by", "cogroup", "reduce_by_key", "distinct", "sort_by"}
)
#: Calls that materialize data on the driver.
DRIVER_CALLS = frozenset({"collect", "take", "run_job"})

#: EXPLAIN markers a pruning operator must emit (PC003).
PRUNING_MARKERS = ("zone_pruned", "key_routed", "batches_pruned")

_BASE_CLASS = "PhysicalPlan"


def _is_abstract(cls: ast.ClassDef) -> bool:
    """True when ``execute`` is missing or only raises NotImplementedError."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "execute":
            body = [
                n for n in stmt.body
                if not (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))
            ]
            if len(body) == 1 and isinstance(body[0], ast.Raise):
                exc = body[0].exc
                name = (
                    exc.func.id
                    if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    else exc.id if isinstance(exc, ast.Name) else None
                )
                return name == "NotImplementedError"
            return False
    return True


def _declared_partitioning(cls: ast.ClassDef) -> tuple[str | None, int]:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "PARTITIONING":
                    value = stmt.value
                    if isinstance(value, ast.Constant) and isinstance(value.value, str):
                        return value.value, stmt.lineno
                    return "", stmt.lineno  # present but not a string literal
    return None, cls.lineno


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _called_attrs(node: ast.AST) -> set[str]:
    calls: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            calls.add(sub.func.attr)
    return calls


def _attr_refs(node: ast.AST) -> set[str]:
    return {
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    }


def _string_constants(node: ast.AST) -> list[str]:
    return [
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    ]


def _assigns_attr(cls: ast.ClassDef, attr: str) -> bool:
    for sub in ast.walk(cls):
        if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr == attr
                ):
                    return True
    return False


def _computed_partitioning(cls: ast.ClassDef) -> str:
    calls = _called_attrs(cls)
    if calls & DRIVER_CALLS:
        return "driver"
    if calls & EXCHANGE_CALLS:
        return "exchange"
    if "children" in _attr_refs(cls):
        return "narrow"
    return "source"


def _check_operator(module: ParsedModule, cls: ast.ClassDef,
                    out: list[Violation]) -> None:
    declared, decl_line = _declared_partitioning(cls)
    if declared is None or declared not in PLACEMENTS:
        module.report(
            out, "PC001", decl_line,
            f"{cls.name} must declare PARTITIONING as one of "
            f"{sorted(PLACEMENTS)} (got {declared!r})",
        )
    else:
        computed = _computed_partitioning(cls)
        if declared != computed:
            module.report(
                out, "PC002", decl_line,
                f"{cls.name} declares PARTITIONING={declared!r} but its "
                f"body implies {computed!r}",
            )

    describe = _method(cls, "describe")

    pruner = _method(cls, "apply_pruning")
    if pruner is not None:
        if "record_scan" not in _called_attrs(pruner):
            module.report(
                out, "PC003", pruner.lineno,
                f"{cls.name}.apply_pruning does not record its decision "
                "(no record_scan call)",
            )
        markers: list[str] = _string_constants(describe) if describe else []
        if not any(m in text for text in markers for m in PRUNING_MARKERS):
            module.report(
                out, "PC003", (describe or pruner).lineno,
                f"{cls.name} prunes but describe() emits none of the "
                f"markers {PRUNING_MARKERS}",
            )

    if _assigns_attr(cls, "decision"):
        surfaced = describe is not None and (
            "decision" in _attr_refs(describe)
            or any("decision" in text for text in _string_constants(describe))
        )
        if not surfaced:
            module.report(
                out, "PC004", cls.lineno,
                f"{cls.name} records a runtime decision but describe() "
                "never surfaces it",
            )

    calls = _called_attrs(cls)
    if "partition_by" in calls and "map_partitions_with_index" not in calls:
        module.report(
            out, "PC005", cls.lineno,
            f"{cls.name} produces partition_by placement but never "
            "consumes it partition-locally (no map_partitions_with_index)",
        )


def check_program(program: Program) -> list[Violation]:
    violations: list[Violation] = []
    for module in program:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == _BASE_CLASS or _BASE_CLASS not in base_names(node):
                continue
            if _is_abstract(node):
                continue
            _check_operator(module, node, violations)
    return violations
