"""Fault-site registry cross-checks (rules FS001–FS002).

``repro.faults.SITES`` is documented as the single source of truth for
injection sites, but nothing enforced it: a typo'd site string at a
call site silently never fires (chaos coverage rots), and a site
registered but never consulted is dead weight that reads as coverage.
Both actually happened — the circuit-breaker guard labels
``"index.fallback"`` and ``"wal.fsync"`` predated their registration.

* **FS001** — a string literal passed as the site argument to an
  injector method (``maybe_fail`` / ``maybe_crash`` / ``maybe_delay``
  / ``should_fire`` / ``choose``), to ``serving.breaker(...)``, or to
  a ``CircuitBreaker(...)`` constructor, that is not in
  ``faults.SITES``. Non-literal site arguments are skipped — they are
  forwarded registry values, not new names;
* **FS002** — a registered site that no analyzed call site ever names.
  Only checked when the analyzed file set includes
  ``faults/injector.py`` itself (a partial-tree run cannot prove a
  site dead). Breaker registrations count as reachability: a breaker
  guard label is consulted every time the breaker decides.

The live registry is imported, not re-parsed: the analyzer runs with
``src`` on its path, so ``from repro.faults.injector import SITES`` is
the same tuple the engine uses.
"""

from __future__ import annotations

import ast

from repro.analysis.program import Program
from repro.analysis.report import Violation
from repro.faults.injector import SITES

#: Injector methods whose first argument names a site.
_INJECTOR_METHODS = frozenset(
    {
        "maybe_fail",
        "maybe_crash",
        "maybe_delay",
        "should_fire",
        "choose",
    }
)


def _site_literal(node: ast.Call) -> tuple[str, int] | None:
    """(site, lineno) when the call names a site with a string literal."""
    func = node.func
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return None
    takes_site = name in _INJECTOR_METHODS or name in (
        "breaker", "CircuitBreaker"
    )
    if not takes_site or not node.args:
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value, node.lineno
    return None


def check_program(program: Program) -> list[Violation]:
    violations: list[Violation] = []
    registered = set(SITES)
    used: set[str] = set()
    for module in program:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            found = _site_literal(node)
            if found is None:
                continue
            site, lineno = found
            used.add(site)
            if site not in registered:
                module.report(
                    violations, "FS001", lineno,
                    f"site {site!r} is not registered in faults.SITES "
                    "(typo, or add it to the registry)",
                )
    injector_module = program.find("faults/injector.py")
    if injector_module is not None:
        # The registry file itself is in the analyzed set: every
        # registered site must be reachable from some call site.
        sites_line = 1
        for node in injector_module.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SITES"
                for t in node.targets
            ):
                sites_line = node.lineno
        for site in sorted(registered - used):
            injector_module.report(
                violations, "FS002", sites_line,
                f"registered site {site!r} is never named at any "
                "injection or breaker call site (dead chaos coverage)",
            )
    return violations
