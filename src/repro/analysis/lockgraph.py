"""Lock discipline and lock ordering on one lock model (LD001–LD004,
LO001–LO003).

Two comment annotations declare the locks: ``# guarded-by: <lock>`` on
the line where a field is first assigned (in a method or the class
body) says every write to it needs ``with self.<lock>:``;
``# requires-lock: <lock>`` on a ``def`` line says the method runs with
the lock already held. One scan per class (nested classes included)
records, for every method, the held-lock set at each acquisition, each
call, and each write through ``self``. A ``requires-lock`` method starts
with its lock held; closures start with an *empty* held set, because a
closure can run after the enclosing ``with`` released the lock.

Lock discipline, class by class (``__init__`` / ``__post_init__`` /
``__new__`` are exempt — the object is not shared yet):

* **LD001** — ``self.f = ...``, ``self.f += ...``, ``self.f[k] = ...``
  or ``del self.f[k]`` on a guarded field without its lock;
* **LD002** — a mutator call ``self.f.<m>(...)`` (``program.MUTATORS``)
  on a guarded field without its lock;
* **LD003** — ``self.m()`` on a ``requires-lock`` method without its
  lock;
* **LD004** — an annotation naming a lock that neither the class nor a
  base class the program defines ever assigns.

Writes through a local alias (``zones = self._zones``) are invisible,
which is why the hot loops that alias are ``requires-lock`` methods or
hold the lock around the aliasing block.

Lock ordering, over the global acquisition graph. ``create_index`` runs
a builder under the bitmap registry lock, the builder takes each
partition's append lock, and the bitmap index records rows under its
own lock — a chain across three modules; a chain elsewhere in the
opposite order is a deadlock no tier-1 test reliably produces:

* **LO001** — a cycle: A held while acquiring B somewhere, and B while
  acquiring A somewhere else;
* **LO002** — re-acquiring a held plain (non-reentrant) ``Lock``;
* **LO003** — a ``requires-lock: X`` method acquiring ``self.X`` itself
  (directly or through a one-level self-call): a self-deadlock.

Lock identity and edges (deliberately approximate, tuned for zero false
positives on this codebase): ``with self.X:`` in class ``C`` is the node
``C.X``; ``self.attr.Y`` resolves to ``Other.Y`` when a method assigns
``self.attr = Other(...)``; module-level locks are ``module:<name>``.
Holding L while calling ``self.m()`` adds edges from L to every lock
``m`` acquires; ``obj.m()`` resolves when exactly one class defines a
lock-acquiring ``m`` (builtin container names never resolve); a lambda
passed to such a callee adds edges from the callee's locks to the locks
the lambda's own callees acquire — the
``registry.acquire(store, ordinal, builder)`` pattern.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.program import MUTATORS, ParsedModule, Program, base_names
from repro.analysis.report import Violation

#: Methods exempt from the LD rules (the object is not shared yet).
_UNSHARED = frozenset({"__init__", "__post_init__", "__new__"})

#: Constructors that create *reentrant* synchronization objects —
#: re-acquiring one of these while held is legal, so LO002 skips them.
_REENTRANT = frozenset({"RLock", "Condition"})
#: Constructors that create any lock-like object (for lock-kind facts).
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore", "Event"})
#: Method names that usually belong to builtin containers / stdlib
#: objects (``list.append``, ``dict.update``, ``set.add`` …). A call
#: like ``self._pointers.append(x)`` must **not** resolve by unique
#: name to a program class that happens to define ``append`` — that
#: conflation invents cross-object edges and phantom cycles.
_AMBIENT_METHODS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "popitem", "clear",
     "update", "add", "discard", "setdefault", "get", "items", "keys",
     "values", "sort", "reverse", "count", "index", "copy", "join",
     "split", "strip", "close", "write", "read", "flush", "put",
     "result", "cancel", "done", "appendleft", "popleft"}
)


def _lock_kind(value: ast.expr) -> str | None:
    """``threading.Lock()`` → ``"Lock"``; ``Condition(...)`` →
    ``"Condition"``; anything else → None."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    if name in _LOCK_FACTORIES:
        return name
    # dataclasses.field(default_factory=threading.Lock)
    if name == "field":
        for kw in value.keywords:
            if kw.arg == "default_factory":
                inner = kw.value
                if isinstance(inner, ast.Attribute) and inner.attr in _LOCK_FACTORIES:
                    return inner.attr
                if isinstance(inner, ast.Name) and inner.id in _LOCK_FACTORIES:
                    return inner.id
    return None


def _attr_path(node: ast.expr) -> list[str] | None:
    """``self.a.b`` → ``["self", "a", "b"]``; non-attribute → None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _self_field(node: ast.expr) -> str | None:
    """``self.f`` / ``self.f[k]`` (any subscript depth) → ``"f"``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    path = _attr_path(node)
    if path and len(path) == 2 and path[0] == "self":
        return path[1]
    return None


def _targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, (ast.Assign, ast.Delete)):
        return node.targets
    return [node.target]


@dataclass
class _Acquisition:
    lock: str
    lineno: int
    held: frozenset[str]


@dataclass
class _CallSite:
    """A call made while locks were held."""

    method: str           # bare callee name
    on_self: bool
    lineno: int
    held: frozenset[str]
    lambda_callees: tuple[str, ...] = ()   # names called inside lambda args


@dataclass
class _Write:
    """A write through ``self``: an assignment or ``del`` target, or a
    mutator call ``self.attr.<mutator>(...)``."""

    attr: str
    lineno: int
    held: frozenset[str]
    mutator: str | None = None


@dataclass
class _MethodFacts:
    qualname: str          # Class.method
    cls: str
    name: str
    module: ParsedModule
    lineno: int
    requires: str | None   # lock attr from # requires-lock
    acquisitions: list[_Acquisition] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)
    writes: list[_Write] = field(default_factory=list)

    @property
    def acquired_locks(self) -> frozenset[str]:
        return frozenset(a.lock for a in self.acquisitions)


class _ClassScanner(ast.NodeVisitor):
    """Collects per-method lock facts for one class."""

    def __init__(self, module: ParsedModule, cls: ast.ClassDef,
                 classes: set[str], module_locks: set[str] | None = None):
        self.module = module
        self.cls = cls
        self.classes = classes
        #: Module-level names bound to lock objects in this module; a
        #: ``with <name>:`` on anything else (a local alias) is ignored
        #: rather than conflated into a global node.
        self.module_locks = module_locks or set()
        #: attr name → kind (for locks created in this class).
        self.lock_kinds: dict[str, str] = {}
        #: attr name → program class it is an instance of.
        self.attr_types: dict[str, str] = {}
        #: Every attribute the class body or a method assigns.
        self.defined: set[str] = set()
        #: field → lock attr, from ``# guarded-by``.
        self.guarded: dict[str, str] = {}
        self.bases = base_names(cls)
        self.methods: list[_MethodFacts] = []
        self._collect_attrs()
        self._collect_methods()

    # -- declaration pass ------------------------------------------------

    def _collect_attrs(self) -> None:
        for stmt in self.cls.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in _targets(stmt):
                    if isinstance(target, ast.Name):
                        self._declare(target.id, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(stmt):
                    if not isinstance(
                        node, (ast.Assign, ast.AnnAssign, ast.AugAssign)
                    ):
                        continue
                    for target in _targets(node):
                        path = _attr_path(target)
                        if path and len(path) == 2 and path[0] == "self":
                            self._declare(path[1], node)

    def _declare(self, attr: str, node: ast.stmt) -> None:
        self.defined.add(attr)
        ann = self.module.annotations.get(node.lineno)
        if ann and ann[0] == "guarded-by":
            self.guarded[attr] = ann[1]
        if not isinstance(node, ast.AugAssign) and node.value is not None:
            self._note_attr(attr, node.value)

    def _note_attr(self, attr: str, value: ast.expr) -> None:
        kind = _lock_kind(value)
        if kind is not None:
            self.lock_kinds.setdefault(attr, kind)
            return
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in self.classes:
                self.attr_types.setdefault(attr, value.func.id)

    # -- method pass -----------------------------------------------------

    def _collect_methods(self) -> None:
        for stmt in self.cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            ann = self.module.annotations.get(stmt.lineno)
            requires = ann[1] if ann and ann[0] == "requires-lock" else None
            facts = _MethodFacts(
                qualname=f"{self.cls.name}.{stmt.name}",
                cls=self.cls.name,
                name=stmt.name,
                module=self.module,
                lineno=stmt.lineno,
                requires=requires,
            )
            held: frozenset[str] = frozenset(
                {self._lock_id(["self", requires])} if requires else set()
            )
            for child in stmt.body:
                self._walk(child, held, facts)
            self.methods.append(facts)

    def _lock_id(self, path: list[str] | None) -> str | None:
        """Resolve an attribute path used as a lock to a global id."""
        if path is None:
            return None
        if path[0] == "self":
            if len(path) == 2:
                return f"{self.cls.name}.{path[1]}"
            if len(path) == 3:
                owner = self.attr_types.get(path[1])
                if owner is not None:
                    return f"{owner}.{path[2]}"
                return f"{self.cls.name}.{path[1]}.{path[2]}"
            return None
        if len(path) == 1 and path[0] in self.module_locks:
            return f"module:{self.module.path}:{path[0]}"
        return None

    def _walk(self, node: ast.AST, held: frozenset[str],
              facts: _MethodFacts) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in node.items:
                lock = self._lock_id(_attr_path(item.context_expr))
                if lock is not None:
                    facts.acquisitions.append(
                        _Acquisition(lock, node.lineno, frozenset(acquired))
                    )
                    acquired.add(lock)
                else:
                    self._walk(item.context_expr, held, facts)
            for child in node.body:
                self._walk(child, frozenset(acquired), facts)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Closure: may run after the enclosing with released.
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                self._walk(child, frozenset(), facts)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                             ast.Delete)):
            for target in _targets(node):
                name = _self_field(target)
                if name is not None:
                    facts.writes.append(_Write(name, node.lineno, held))
        elif isinstance(node, ast.Call):
            self._note_call(node, held, facts)
        for child in ast.iter_child_nodes(node):
            self._walk(child, held, facts)

    def _note_call(self, node: ast.Call, held: frozenset[str],
                   facts: _MethodFacts) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        on_self = isinstance(receiver, ast.Name) and receiver.id == "self"
        mutated = _self_field(receiver) if func.attr in MUTATORS else None
        if mutated is not None:
            facts.writes.append(
                _Write(mutated, node.lineno, held, mutator=func.attr)
            )
        lambda_callees: list[str] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call) and isinstance(
                        sub.func, ast.Attribute
                    ):
                        lambda_callees.append(sub.func.attr)
        facts.calls.append(
            _CallSite(
                method=func.attr,
                on_self=on_self,
                lineno=node.lineno,
                held=held,
                lambda_callees=tuple(lambda_callees),
            )
        )


@dataclass
class _Edge:
    src: str
    dst: str
    path: str
    lineno: int
    why: str


class LockGraph:
    """The global acquisition graph plus the facts that built it."""

    def __init__(self, program: Program):
        self.program = program
        #: One scanner per class, nested classes included.
        self.scanners: list[_ClassScanner] = []
        #: class name → scanners of every class so named.
        self.classes: dict[str, list[_ClassScanner]] = {}
        self.methods: list[_MethodFacts] = []
        #: Class.method → facts.
        self.by_qualname: dict[str, _MethodFacts] = {}
        #: bare method name → facts of every lock-acquiring definition.
        self.acquirers_by_name: dict[str, list[_MethodFacts]] = {}
        #: lock id → kind ("Lock" / "RLock" / ...).
        self.lock_kinds: dict[str, str] = {}
        self.edges: list[_Edge] = []
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        class_names = {
            node.name
            for module in self.program
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for module in self.program:
            module_locks = {
                target.id
                for stmt in module.tree.body
                if isinstance(stmt, ast.Assign)
                and _lock_kind(stmt.value) is not None
                for target in stmt.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    scanner = _ClassScanner(module, node, class_names,
                                            module_locks)
                    self.scanners.append(scanner)
                    self.classes.setdefault(node.name, []).append(scanner)
                    for attr, kind in scanner.lock_kinds.items():
                        self.lock_kinds[f"{node.name}.{attr}"] = kind
        for scanner in self.scanners:
            for facts in scanner.methods:
                self.methods.append(facts)
                self.by_qualname[facts.qualname] = facts
                if facts.acquisitions:
                    self.acquirers_by_name.setdefault(facts.name, []).append(
                        facts
                    )
        # Direct nesting edges.
        for facts in self.methods:
            for acq in facts.acquisitions:
                for held in acq.held:
                    self._edge(held, acq.lock, facts, acq.lineno,
                               f"{facts.qualname} nests the acquisitions")
        # One-level call edges (self calls, unique-name calls, lambdas).
        for facts in self.methods:
            for call in facts.calls:
                callee = self._resolve(facts, call)
                if callee is None:
                    continue
                for held in call.held:
                    for lock in sorted(callee.acquired_locks):
                        self._edge(
                            held, lock, facts, call.lineno,
                            f"{facts.qualname} calls "
                            f"{callee.qualname} while holding",
                        )
                # Locks the callee holds while running a lambda argument:
                # whatever the lambda's own callees acquire nests inside.
                if call.lambda_callees and callee.acquired_locks:
                    for inner_name in call.lambda_callees:
                        inner = self._unique_acquirer(inner_name)
                        if inner is None:
                            continue
                        for outer in sorted(callee.acquired_locks):
                            for lock in sorted(inner.acquired_locks):
                                self._edge(
                                    outer, lock, facts, call.lineno,
                                    f"lambda passed to {callee.qualname} "
                                    f"calls {inner.qualname}",
                                )

    def _resolve(self, caller: _MethodFacts,
                 call: _CallSite) -> _MethodFacts | None:
        if call.on_self:
            return self.by_qualname.get(f"{caller.cls}.{call.method}")
        return self._unique_acquirer(call.method)

    def _unique_acquirer(self, name: str) -> _MethodFacts | None:
        if name in _AMBIENT_METHODS:
            return None
        candidates = self.acquirers_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def known_attrs(self, scanner: _ClassScanner) -> set[str]:
        """Attributes the class or any base class the program defines
        assigns (bases resolve by name)."""
        known = set(scanner.defined)
        pending, seen = list(scanner.bases), set()
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            for base in self.classes.get(name, ()):
                known |= base.defined
                pending.extend(base.bases)
        return known

    def _edge(self, src: str, dst: str, facts: _MethodFacts, lineno: int,
              why: str) -> None:
        if src == dst:
            return  # re-acquisition, LO002's business
        self.edges.append(_Edge(src, dst, facts.module.path, lineno, why))

    # -- cycle detection -------------------------------------------------

    def cycles(self) -> list[list[_Edge]]:
        """Every elementary cycle, as the edge list that closes it."""
        adjacency: dict[str, list[_Edge]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.src, []).append(edge)
        seen_cycles: set[frozenset[str]] = set()
        found: list[list[_Edge]] = []

        def dfs(node: str, path: list[_Edge], on_path: dict[str, int]) -> None:
            for edge in adjacency.get(node, []):
                if edge.dst in on_path:
                    cycle = path[on_path[edge.dst]:] + [edge]
                    key = frozenset(e.src for e in cycle)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        found.append(cycle)
                    continue
                on_path[edge.dst] = len(path) + 1
                dfs(edge.dst, path + [edge], on_path)
                del on_path[edge.dst]

        for start in sorted(adjacency):
            dfs(start, [], {start: 0})
        return found


def _check_discipline(graph: LockGraph, scanner: _ClassScanner,
                      out: list[Violation]) -> None:
    """LD001–LD004 for one class."""
    cls, module = scanner.cls.name, scanner.module
    known = graph.known_attrs(scanner)
    for name, lock in sorted(scanner.guarded.items()):
        if lock not in known:
            module.report(
                out, "LD004", scanner.cls.lineno,
                f"{cls}.{name} is guarded by unknown lock {lock!r} "
                "(never assigned in the class or its bases)",
            )
    requires = {f.name: f.requires for f in scanner.methods if f.requires}
    for method, lock in sorted(requires.items()):
        if lock not in known:
            module.report(
                out, "LD004", scanner.cls.lineno,
                f"{cls}.{method} requires unknown lock {lock!r}",
            )
    for facts in scanner.methods:
        if facts.name in _UNSHARED:
            continue
        for write in facts.writes:
            lock = scanner.guarded.get(write.attr)
            if lock is None or f"{cls}.{lock}" in write.held:
                continue
            if write.mutator is None:
                module.report(
                    out, "LD001", write.lineno,
                    f"write to {cls}.{write.attr} outside "
                    f"`with self.{lock}:`",
                )
            else:
                module.report(
                    out, "LD002", write.lineno,
                    f"{cls}.{write.attr}.{write.mutator}() outside "
                    f"`with self.{lock}:`",
                )
        for call in facts.calls:
            lock = requires.get(call.method) if call.on_self else None
            if lock is not None and f"{cls}.{lock}" not in call.held:
                module.report(
                    out, "LD003", call.lineno,
                    f"call to {cls}.{call.method}() without holding "
                    f"self.{lock} (requires-lock)",
                )


def check_program(program: Program) -> list[Violation]:
    graph = LockGraph(program)
    violations: list[Violation] = []
    for scanner in graph.scanners:
        _check_discipline(graph, scanner, violations)

    # LO001 — acquisition cycles.
    for cycle in graph.cycles():
        order = " -> ".join([e.src for e in cycle] + [cycle[0].src])
        anchor = cycle[0]
        module = program.find(anchor.path) or program.modules[0]
        module.report(
            violations, "LO001", anchor.lineno,
            f"lock-order cycle {order} ({anchor.why})",
        )

    for facts in graph.methods:
        # LO002 — re-acquiring a held non-reentrant lock.
        for acq in facts.acquisitions:
            if acq.lock not in acq.held:
                continue
            kind = graph.lock_kinds.get(acq.lock)
            if kind is None or kind in _REENTRANT:
                continue
            facts.module.report(
                violations, "LO002", acq.lineno,
                f"{facts.qualname} re-acquires held non-reentrant lock "
                f"{acq.lock} (threading.{kind})",
            )
        # LO003 — requires-lock method acquiring its own lock.
        if facts.requires is None:
            continue
        own = f"{facts.cls}.{facts.requires}"
        for acq in facts.acquisitions:
            if acq.lock == own:
                facts.module.report(
                    violations, "LO003", acq.lineno,
                    f"{facts.qualname} is annotated requires-lock: "
                    f"{facts.requires} but acquires self.{facts.requires} "
                    "itself",
                )
        for call in facts.calls:
            callee = graph.by_qualname.get(f"{facts.cls}.{call.method}") \
                if call.on_self else None
            if callee is None or callee is facts:
                continue
            if own in callee.acquired_locks:
                facts.module.report(
                    violations, "LO003", call.lineno,
                    f"{facts.qualname} (requires-lock: {facts.requires}) "
                    f"calls {callee.qualname}, which acquires "
                    f"self.{facts.requires}",
                )
    return violations
