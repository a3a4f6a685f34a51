"""Whole-program facts shared by every ``*.py`` rule family.

Every rule family that reads Python source — lock discipline and lock
ordering (LD, LO), plan contracts (PC), exception taxonomy (ET),
cancellation-poll coverage (CP), fault-site cross-checks (FS), and
process-boundary escape analysis (XP) — runs over one parse of the
analyzed tree. Some need facts *across* modules: the global
lock-acquisition graph, a lock inherited from a base class in another
module, the scheduler's transient-retry set, the fault-site registry.
This module provides that single-parse pass:

* :class:`ParsedModule` — one source file parsed once: AST, raw lines,
  the ``guarded-by`` / ``requires-lock`` annotations, ``# lint:
  allow[...]`` suppressions (with their justifications), and the
  ``# analysis: <marker>`` obligations;
* :class:`Program` — the collection of parsed modules plus the lookup
  helpers rule families use (module by path suffix, marker queries).

Suppression contract, one for every family: an inline allow **must**
carry a justification (``# lint: allow[ET002] -- ships the error to
the driver``). An allow without one does not suppress — intentional
exceptions must say why, in the code, where the next reader needs it.

Marker comments (machine-readable obligations, not suppressions):

* ``# analysis: poll-obligated`` — on its own line: the whole module is
  poll-obligated (CP rules apply); on a ``class`` line: only that
  class's methods are;
* ``# analysis: worker-side`` — the module (or class) runs inside
  worker processes: XP002/XP003 apply;
* ``# analysis: shipped`` — on a ``class`` line: instances cross the
  process boundary through the task codec: XP001 applies.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.report import Violation

_ANNOT_RE = re.compile(
    r"#\s*(guarded-by|requires-lock):\s*([A-Za-z_][A-Za-z0-9_]*)"
)
_ALLOW_RE = re.compile(
    r"#\s*lint:\s*allow\[([A-Z0-9_, ]+)\](?:\s*--\s*(\S.*))?"
)
_MARKER_RE = re.compile(r"#\s*analysis:\s*([a-z-]+)")

KNOWN_MARKERS = frozenset({"poll-obligated", "worker-side", "shipped"})

#: Method names that mutate their receiver: builtin containers plus the
#: domain structures the engine guards and ships (zone maps, bitmaps,
#: row batches, WAL segments). LD002 and XP002 both read this set.
MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "popitem", "clear",
     "update", "add", "discard", "setdefault", "sort", "reverse",
     "update_row", "merge", "readonly_snapshot", "seal", "record",
     "rotate", "truncate"}
)


def base_names(cls: ast.ClassDef) -> set[str]:
    """``class C(a.B, D)`` → ``{"B", "D"}``."""
    names: set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


@dataclass(frozen=True)
class Allow:
    """One ``# lint: allow[...]`` comment."""

    rules: frozenset[str]
    justification: str | None

    def suppresses(self, rule: str) -> bool:
        return rule in self.rules and bool(self.justification)


@dataclass
class ParsedModule:
    """One source file, parsed once and annotated for every family."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: line → (kind, lock) from ``guarded-by`` / ``requires-lock``.
    annotations: dict[int, tuple[str, str]] = field(default_factory=dict)
    #: line → allow entry.
    allows: dict[int, Allow] = field(default_factory=dict)
    #: line → marker names on that line.
    markers: dict[int, set[str]] = field(default_factory=dict)

    # -- markers ---------------------------------------------------------

    def module_marked(self, marker: str) -> bool:
        """True when ``marker`` appears on a standalone comment line
        (whole-module obligation)."""
        for lineno, names in self.markers.items():
            if marker not in names:
                continue
            text = self.lines[lineno - 1].lstrip()
            if text.startswith("#"):
                return True
        return False

    def marked_classes(self, marker: str) -> set[str]:
        """Names of classes whose ``class`` line carries ``marker``."""
        found: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef) and marker in self.markers.get(
                node.lineno, ()
            ):
                found.add(node.name)
        return found

    # -- reporting -------------------------------------------------------

    def report(
        self,
        out: list[Violation],
        rule: str,
        lineno: int,
        message: str,
    ) -> None:
        """Append a violation unless a valid allow suppresses it."""
        allow = self.allows.get(lineno)
        if allow is not None and allow.suppresses(rule):
            return
        out.append(Violation(rule, self.path, lineno, message))


def parse_module(path: str, source: str) -> ParsedModule:
    tree = ast.parse(source)
    lines = source.splitlines()
    annotations: dict[int, tuple[str, str]] = {}
    allows: dict[int, Allow] = {}
    markers: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        m = _ANNOT_RE.search(line)
        if m:
            annotations[lineno] = (m.group(1), m.group(2))
        m = _ALLOW_RE.search(line)
        if m:
            rules = frozenset(
                r.strip() for r in m.group(1).split(",") if r.strip()
            )
            justification = m.group(2).strip() if m.group(2) else None
            allows[lineno] = Allow(rules, justification)
        m = _MARKER_RE.search(line)
        if m and m.group(1) in KNOWN_MARKERS:
            markers.setdefault(lineno, set()).add(m.group(1))
    return ParsedModule(
        path=path,
        source=source,
        tree=tree,
        lines=lines,
        annotations=annotations,
        allows=allows,
        markers=markers,
    )


class Program:
    """The parsed modules of one analysis run."""

    def __init__(self, modules: list[ParsedModule]):
        self.modules = modules
        self._by_suffix: dict[str, ParsedModule] = {}
        for module in modules:
            normalized = module.path.replace("\\", "/")
            self._by_suffix[normalized] = module

    @classmethod
    def load(cls, paths: list[str | Path]) -> "Program":
        modules = []
        for path in paths:
            path = Path(path)
            modules.append(
                parse_module(str(path), path.read_text(encoding="utf-8"))
            )
        return cls(modules)

    def find(self, suffix: str) -> ParsedModule | None:
        """The module whose normalized path ends with ``suffix``."""
        for path, module in self._by_suffix.items():
            if path.endswith(suffix):
                return module
        return None

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)
