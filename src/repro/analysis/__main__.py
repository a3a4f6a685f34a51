"""CLI entry point: ``python -m repro.analysis [paths...]``.

Walks the given files/directories and runs every rule family:

* over one shared parse of every ``*.py`` file: lock discipline (LD)
  and lock ordering (LO), plan contracts (PC), exception taxonomy (ET),
  cancellation-poll coverage (CP), fault-site cross-checks (FS),
  process-boundary escapes (XP);
* per file: generated-code rules (CG) on ``*.gensrc`` kernel captures.

Output is one ``path:line: RULE message`` line per finding (or a JSON
document with ``--format json``), exit nonzero if anything was found.

* ``--select`` / ``--ignore`` filter by rule id or family prefix
  (``--select ET,LO`` or ``--ignore CP001``);
* ``--self-check`` (on by default) compiles representative expression
  kernels through :mod:`repro.codegen`, running the CG rules on real
  emitter output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import (
    cancelcheck,
    codegen_rules,
    escapecheck,
    lockgraph,
    plancheck,
    sitecheck,
    taxonomy,
)
from repro.analysis.program import Program
from repro.analysis.report import RULES, Violation

#: Rule families for ``*.py`` files, run over one shared parse.
PROGRAM_CHECKS = (
    lockgraph, plancheck, taxonomy, cancelcheck, sitecheck, escapecheck,
)


def iter_source_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
            files.extend(sorted(path.rglob("*.gensrc")))
        else:
            files.append(path)
    return files


def _matches(rule: str, patterns: list[str]) -> bool:
    return any(rule == p or rule.startswith(p) for p in patterns)


def check_paths(
    paths: list[str],
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> list[Violation]:
    violations: list[Violation] = []
    py_files: list[Path] = []
    for path in iter_source_files(paths):
        if path.suffix == ".gensrc":
            violations.extend(codegen_rules.check_file(path))
            continue
        py_files.append(path)
    if py_files:
        program = Program.load(py_files)
        for family in PROGRAM_CHECKS:
            violations.extend(family.check_program(program))
    if select:
        violations = [v for v in violations if _matches(v.rule, select)]
    if ignore:
        violations = [v for v in violations if not _matches(v.rule, ignore)]
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def self_check() -> list[str]:
    """Compile representative kernels; return error strings (empty = ok)."""
    from repro.codegen import compile_predicate, compile_projection
    from repro.errors import CodegenError
    from repro.sql import expressions as E
    from repro.sql.types import IntegerType, StringType

    age = E.BoundReference(0, IntegerType(), "age")
    name = E.BoundReference(1, StringType(), "name")
    cases = [
        ("predicate", lambda: compile_predicate(
            E.And(
                E.GreaterThan(age, E.Literal(21)),
                E.IsNotNull(name),
            )
        )),
        ("projection", lambda: compile_projection(
            [E.Add(age, E.Literal(1)), name]
        )),
        ("arithmetic", lambda: compile_projection(
            [E.Divide(E.Multiply(age, age), E.Subtract(age, E.Literal(1)))]
        )),
    ]
    errors: list[str] = []
    for label, build in cases:
        try:
            build()
        except CodegenError as exc:
            errors.append(f"self-check kernel {label!r} failed validation: {exc}")
        # The self-check *reports* breakage instead of crashing the CLI;
        # nothing is absorbed — every failure fails the run.
        except Exception as exc:  # lint: allow[ET001] -- reported as a failing check, exits nonzero
            errors.append(f"self-check kernel {label!r} raised {exc!r}")
    return errors


def _split_rules(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific static analysis: one parse of the "
        "tree feeds every source rule family (lock discipline and "
        "ordering, plan contracts, exception taxonomy, cancellation "
        "polls, fault sites, process-boundary escapes); captured kernels "
        "get the generated-code rules.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json: machine-readable, for CI)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids or family prefixes to run "
        "(e.g. ET,LO001)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule ids or family prefixes to skip",
    )
    parser.add_argument(
        "--no-self-check", action="store_true",
        help="skip compiling representative codegen kernels",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0

    files = iter_source_files(args.paths)
    violations = check_paths(
        args.paths, _split_rules(args.select), _split_rules(args.ignore)
    )

    errors: list[str] = []
    if not args.no_self_check:
        errors = self_check()

    if args.format == "json":
        print(json.dumps(
            {
                "files_checked": len(files),
                "violations": [
                    {
                        "rule": v.rule,
                        "path": v.path,
                        "line": v.line,
                        "message": v.message,
                    }
                    for v in violations
                ],
                "self_check_failures": errors,
            },
            indent=2,
        ))
    else:
        for violation in violations:
            print(violation.render())
        for error in errors:
            print(error)

    if violations or errors:
        print(
            f"repro.analysis: {len(violations)} violation(s), "
            f"{len(errors)} self-check failure(s)",
            file=sys.stderr,
        )
        return 1
    check = "skipped" if args.no_self_check else "ok"
    print(
        f"analysis: {len(files)} files checked, 0 violations, "
        f"self-check {check}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
