"""The package layer order, checked over the runtime import graph.

The paper's integration claim is that the index plugs into Spark
through injected rules and strategies, without modifying Spark. Here
that boundary is a layer order: a module imports only from its own
layer or the ones below it. The composition root (``repro.sql.session``)
and the public facades sit on top and wire the layers together.

Every ``import`` and ``from … import`` under ``src/repro`` counts, at
module level or inside a function (a lazy import is still a dependency),
except inside an ``if TYPE_CHECKING:`` block, which never runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.config import Config
from repro.engine.context import EngineContext
from repro.errors import ConfigError

SRC = Path(__file__).resolve().parent.parent / "src"

#: Layer of each package or module, lowest first; a module takes the
#: entry of its longest dotted prefix.
LAYERS = {
    # Leaf utilities every layer may use.
    "repro.config": 0,
    "repro.errors": 0,
    "repro.faults": 0,
    "repro.serialize": 0,
    "repro.stats": 0,
    # The Spark-core substrate.
    "repro.engine": 1,
    # Spark SQL: parser, analyzer, optimizer, planner, operators.
    "repro.sql": 2,
    # The paper's extension: the Indexed DataFrame and its indexes,
    # injected into SQL as rules and strategies; kernel codegen.
    "repro.codegen": 3,
    "repro.core": 3,
    "repro.ctrie": 3,
    "repro.index": 3,
    # Subsystems built on the extension.
    "repro.cluster": 4,
    "repro.durability": 4,
    "repro.serving": 4,
    "repro.streaming": 4,
    # The composition root, applications and tools.
    "repro.sql.session": 5,
    "repro.analysis": 5,
    "repro.snb": 5,
}

#: Package facades that re-export the composition root sit with it.
FACADES = {"repro": 5, "repro.sql": 5}

#: Out-of-order edges that remain, each with the ROADMAP item that
#: removes it. This table may only shrink: an edge missing from it
#: fails the test, and so does an entry that no longer occurs.
ALLOWED = {
    ("repro.codegen.compiler", "repro.analysis.codegen_rules"):
        "item 7: the codegen self-check rules move out of the analyzer",
    ("repro.sql.physical", "repro.codegen"):
        "item 4: column kernels replace the per-row codegen kernels",
}


def _modules() -> dict[str, tuple[Path, bool]]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (path, is_package)
    return modules


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(name: str, path: Path, is_package: bool, modules) -> set[str]:
    """The repro modules ``name`` imports at runtime."""
    package = name if is_package else name.rpartition(".")[0]
    found: set[str] = set()
    pending: list[ast.AST] = [ast.parse(path.read_text())]
    while pending:
        for node in ast.iter_child_nodes(pending.pop()):
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                pending.extend(node.orelse)
                continue
            pending.append(node)
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    # ``from pkg import mod`` depends on the submodule.
                    target = f"{base}.{alias.name}"
                    found.add(target if target in modules else base)
    return {target for target in found if target.split(".")[0] == "repro"}


def _layer(name: str) -> int:
    if name in FACADES:
        return FACADES[name]
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        prefix = ".".join(parts[:end])
        if prefix in LAYERS:
            return LAYERS[prefix]
    raise AssertionError(f"{name} has no layer: add its package to LAYERS")


def _out_of_order_edges() -> set[tuple[str, str]]:
    modules = _modules()
    edges = set()
    for name, (path, is_package) in modules.items():
        for target in _imports(name, path, is_package, modules):
            if _layer(target) > _layer(name):
                edges.add((name, target))
    return edges


def test_imports_follow_the_layer_order():
    edges = _out_of_order_edges()
    new = sorted(edges - set(ALLOWED))
    assert not new, f"imports from a higher layer: {new}"
    stale = sorted(set(ALLOWED) - edges)
    assert not stale, f"ALLOWED lists edges that are gone; delete them: {stale}"


def test_engine_imports_nothing_above_it():
    assert not [e for e in _out_of_order_edges() if e[0].startswith("repro.engine.")]


def test_sql_operators_import_no_index_and_no_serving():
    modules = _modules()
    path, is_package = modules["repro.sql.physical"]
    imports = _imports("repro.sql.physical", path, is_package, modules)
    assert not [i for i in imports if i.startswith(("repro.index", "repro.serving"))]


def test_executors_need_an_injected_backend():
    # The engine cannot build the process backend, and must not
    # quietly run in-process instead.
    with pytest.raises(ConfigError, match="executors=2"):
        EngineContext(Config(executors=2))
