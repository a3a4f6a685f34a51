"""Plan cache: memoized analysis and logical optimization with
parameter slots.

Low-latency serving repeats the same query shapes with different
constants (``WHERE id = ?``), and analysis plus logical optimization —
resolution passes and a dozen rules run to fixed point over the whole
tree — are pure overhead the second time around. This cache memoizes
the *standard-batch* optimized plan keyed by a fingerprint of **the
plan as built** (after table resolution, before analysis), with
comparison literals masked out as parameter slots so ``id = 5`` and
``id = 7`` share one template. A hit therefore skips the analyzer as
well as the standard batches; only a miss analyses, and it analyses the
very tree it fingerprinted, so the template's slot literals and leaves
are linked to the fingerprint by identity.

Keying before analysis is sound because analysis is a deterministic
function of the table-resolved tree:

* Everything that is not a function of the tree happens before the
  walk, in :meth:`~repro.sql.session.Session.resolve_tables`: catalog
  lookups, fresh relation instances (and their attribute ids), and the
  desugaring of ``IN (SELECT ...)`` into semi/anti joins.
* Unresolved names (with their qualifiers), stars and functions
  fingerprint by value, and so do resolved attributes' names and
  qualifiers — the inputs name resolution reads.
* The analyzer reads a literal's *value* in two places only: it names
  an unnamed select-list item after its text, and it matches GROUP BY
  expressions against the select list by value. So no literal under a
  ``Project`` or ``Aggregate`` is ever a slot; those key by value.
* A shape that fails analysis is never inserted, so every execution of
  it analyses afresh and raises again.

Scope is deliberately the standard batches only: the extensions batch
(the index-aware rewrites) bakes literal values and MVCC versions into
physical-ish nodes, so it always runs fresh on the (substituted) copy.
All optimizer rules are functional — a rule that changes nothing
returns the same object, and rewrites build new trees — so a cached
template is never mutated by reuse.

Versions are parameters too. A :class:`~repro.sql.logical.VersionedLeaf`
(the Indexed DataFrame's scan) fingerprints by its ``cache_token()`` —
which store, and what about the scan besides its rows a rule could
depend on — *not* by the version it reads, so the query that follows
an append finds the template its predecessor left. The template is
stored **unbound** (``leaf.rebind(None)``): it holds no version, and a
hit rebinds every leaf, by position in the fingerprint walk, to the
incoming leaf's version while keeping the template's attribute ids.
A self-join of an old and a new handle of one store therefore gets
each side its own version.

Soundness of slot masking:

* Only a :class:`~repro.sql.expressions.Literal` that is the *direct
  child* of a :class:`~repro.sql.expressions.BinaryComparison` with
  exactly one literal side, outside any ``Project`` or ``Aggregate``
  expression list, is a slot. No standard rule's decision
  depends on the *value* of such a literal, only on its presence —
  unless the other side folds to a literal too, in which case
  ``constant_folding`` consumes it.
* Every other literal (IN lists, arithmetic operands, booleans under
  And/Or, fold results) is baked into the fingerprint by value, so
  value-sensitive rules (``boolean_simplification``,
  ``simplify_in_lists``, ``prune_filters``, ...) key the cache.
* At insert time each slot literal is checked for *identity survival*
  into the optimized template. Survivors become substitutable slots
  (reuse rewrites the template with the new literal); casualties —
  a comparison that folded away — demote to exact-match slots, which
  hit only when the incoming value equals the cached one.

Plain relation leaves key by object identity (the cached template
keeps them alive, so ids cannot be recycled while the entry lives).

The *full-plan* level — the extensions batch included — is different:
an index rewrite reads the version (chain-length estimates, bitmap
views), so its key adds every leaf's version and a hit is verbatim.
Such an entry does hold its versions; it is dropped as soon as the
store moves on — :meth:`PlanCache.supersede`, called by whoever mints
the next version, or failing that the first plan cached over a newer
one — and a plan over an already superseded version (an old handle,
still perfectly usable) is not cached at all. The cache thus never
keeps more than the newest version it has seen of any store alive.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.sql.expressions import (
    Attribute,
    BinaryComparison,
    Expression,
    Literal,
)
from repro.sql.logical import Aggregate, LogicalPlan, Project, VersionedLeaf
from repro.sql.relation import BaseRelation


class Fingerprint:
    """What one walk of a table-resolved plan yields (and accumulates in)."""

    __slots__ = ("key", "slots", "leaves", "tokens", "pins", "masking", "_expr_ids")

    def __init__(self) -> None:
        self.key: Any = None
        self.masking = True  # off inside Project/Aggregate expression lists
        self.slots: list[Literal] = []  # eligible literals, walk order
        self.leaves: list[VersionedLeaf] = []  # versioned leaves, walk order
        self.tokens: list[tuple] = []  # their cache_token(), aligned
        self.pins: list[Any] = []  # identity-keyed leaves (keep alive)
        self._expr_ids: dict[int, int] = {}  # expr_id -> first-seen index

    def norm_expr_id(self, expr_id: int) -> int:
        """Attribute ids are minted per query; normalize to occurrence
        order so two instantiations of one shape fingerprint equal."""
        return self._expr_ids.setdefault(expr_id, len(self._expr_ids))


def _scalar_token(value: Any) -> Any:
    """A hashable, deterministic token for a non-tree attribute."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(_scalar_token(v) for v in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((str(k), _scalar_token(v)) for k, v in value.items())),
        )
    # DataTypes, StructTypes, etc. define value-based reprs; anything
    # with a default (address-bearing) repr would just always miss.
    return ("repr", type(value).__name__, repr(value))


def _node_attrs(node: Any) -> list[tuple[str, Any]]:
    attrs = getattr(node, "__dict__", None)
    if attrs is not None:
        return sorted(attrs.items())
    return sorted(
        (name, getattr(node, name))
        for name in getattr(type(node), "__slots__", ())
        if hasattr(node, name)
    )


def _walk_value(value: Any, state: Fingerprint) -> Any:
    if isinstance(value, Expression):
        return _walk_expr(value, state, slot_ok=False)
    if isinstance(value, LogicalPlan):
        return _walk_plan(value, state)
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(_walk_value(v, state) for v in value))
    if isinstance(value, BaseRelation):
        state.pins.append(value)
        return ("rel", id(value))
    if type(value).__module__ == "repro.sql.types":
        return _scalar_token(value)  # DataTypes compare (and repr) by value
    if type(value).__module__.startswith("repro."):
        # Opaque engine object (e.g. an IndexedDataFrame): identity key,
        # pinned so the id stays unambiguous for the entry's lifetime.
        state.pins.append(value)
        return ("obj", type(value).__name__, id(value))
    return _scalar_token(value)


def _walk_expr(expr: Expression, state: Fingerprint, slot_ok: bool) -> Any:
    if isinstance(expr, Literal):
        if slot_ok:
            state.slots.append(expr)
            return ("?", len(state.slots) - 1, _scalar_token(expr.dtype))
        return ("lit", _scalar_token(expr.value), _scalar_token(expr.dtype))
    if isinstance(expr, Attribute):
        return (
            "attr",
            state.norm_expr_id(expr.expr_id),
            expr.name,
            expr.qualifier,
            _scalar_token(expr.dtype),
            expr.nullable,
        )
    children = expr.children
    if isinstance(expr, BinaryComparison) and len(children) == 2:
        # Exactly one literal side -> that literal is a parameter slot.
        literal_sides = sum(isinstance(c, Literal) for c in children)
        child_ok = literal_sides == 1 and state.masking
    else:
        child_ok = False
    walked_children = tuple(
        _walk_expr(c, state, slot_ok=child_ok and isinstance(c, Literal))
        for c in children
    )
    extras = tuple(
        # Expression ids (Alias and friends) are minted per query, like
        # Attribute ids — normalize them the same way.
        (name, state.norm_expr_id(value))
        if name == "expr_id" and isinstance(value, int)
        else (name, _walk_value(value, state))
        for name, value in _node_attrs(expr)
        if name != "children"
        and not isinstance(value, Expression)
        and not (
            isinstance(value, (tuple, list))
            and any(isinstance(v, Expression) for v in value)
        )
    )
    return ("e", type(expr).__name__, walked_children, extras)


def _walk_plan(plan: LogicalPlan, state: Fingerprint) -> Any:
    if isinstance(plan, VersionedLeaf):
        token = plan.cache_token()
        state.leaves.append(plan)
        state.tokens.append(token)
        return (
            "leaf",
            type(plan).__name__,
            token[:2],  # store and layout; the version is a parameter
            tuple(_walk_expr(a, state, slot_ok=False) for a in plan.output()),
        )
    walked_children = tuple(_walk_plan(c, state) for c in plan.children)
    masking = state.masking
    # Analysis reads the values of literals in select lists (names,
    # GROUP BY matching): key them by value.
    state.masking = masking and not isinstance(plan, (Project, Aggregate))
    extras = tuple(
        (name, _walk_value(value, state))
        for name, value in _node_attrs(plan)
        if not isinstance(value, LogicalPlan)
        and not (
            isinstance(value, (tuple, list))
            and any(isinstance(v, LogicalPlan) for v in value)
        )
    )
    state.masking = masking
    return ("p", type(plan).__name__, walked_children, extras)


def fingerprint(plan: LogicalPlan) -> Fingerprint:
    state = Fingerprint()
    state.key = _walk_plan(plan, state)
    return state


def _instantiate(
    plan: LogicalPlan,
    literals: dict[int, Literal],
    leaves: dict[int, LogicalPlan],
) -> LogicalPlan:
    """Functional rewrite replacing template literals and leaves (both
    by id) with the given ones; the template itself is untouched."""

    def sub(expr: Expression) -> Expression:
        return literals.get(id(expr), expr)

    def rewrite(node: LogicalPlan) -> LogicalPlan:
        leaf = leaves.get(id(node))
        if leaf is not None:
            return leaf
        if literals:
            return node.map_expressions(lambda e: e.transform_up(sub))
        return node

    return plan.transform_up(rewrite)


def _is_versioned(plan: LogicalPlan) -> bool:
    return isinstance(plan, VersionedLeaf)


class _Entry:
    __slots__ = ("plan", "specs", "leaves", "held", "pins")

    def __init__(
        self,
        plan: LogicalPlan,
        pins: list[Any],
        specs: list[tuple] = (),
        leaves: list[VersionedLeaf] = (),
        held: list[tuple[Any, int]] = (),
    ):
        self.plan = plan
        self.pins = pins
        #: Template level. Per slot, aligned with the fingerprint's slot
        #: walk order: ``("sub", template_literal)`` for
        #: identity-surviving slots, ``("exact", value, dtype)`` for
        #: folded-away ones.
        self.specs = specs
        #: Template level. The plan's unbound leaves, aligned with the
        #: fingerprint's leaf walk order.
        self.leaves = leaves
        #: Full level. ``(store, version)`` of every version the plan
        #: holds.
        self.held = held


class PlanCache:
    """LRU cache of standard-optimized plan templates.

    Thread-safe: served queries optimize concurrently. Lookup and
    insert are O(plan size); the stored template is shared and only
    ever read (substitution builds a fresh tree).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, _Entry]" = OrderedDict()  # guarded-by: _lock
        #: Fully-optimized plans (extensions batch included), keyed by
        #: (template key, exact slot values, exact versions). Extension
        #: rewrites bake literal keys and MVCC versions into the tree,
        #: so these entries are only reusable verbatim.
        self._full: "OrderedDict[Any, _Entry]" = OrderedDict()  # guarded-by: _lock
        #: Newest version seen at the full level, per store: what
        #: decides that a full entry is superseded. One int per store
        #: this cache ever planned over.
        self._newest: dict[Any, int] = {}  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def full_len(self) -> int:
        with self._lock:
            return len(self._full)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._full.clear()
            self._newest.clear()

    @staticmethod
    def _full_key(fp: Fingerprint) -> Any:
        return (
            fp.key,
            tuple((_scalar_token(s.value), _scalar_token(s.dtype)) for s in fp.slots),
            tuple(token[2] for token in fp.tokens),
        )

    def lookup_full(self, fp: Fingerprint) -> LogicalPlan | None:
        """A fully-optimized plan for this exact (shape, values,
        versions) triple.

        No substitution happens here: a full entry already went through
        the extensions batch, which bakes slot values and versions in
        (an IN-list of cTrie keys, a chain-length estimate), so only an
        exact match may reuse it.
        """
        full_key = self._full_key(fp)
        with self._lock:
            entry = self._full.get(full_key)
            if entry is None:
                return None
            self._full.move_to_end(full_key)
            return entry.plan

    def insert_full(self, fp: Fingerprint, plan: LogicalPlan) -> None:
        if self.capacity <= 0:
            return
        held = [(store, version) for store, _layout, version in fp.tokens]
        entry = _Entry(plan, fp.pins, held=held)
        full_key = self._full_key(fp)
        with self._lock:
            newest = self._newest
            if any(newest.get(store, version) > version for store, version in held):
                return  # over a superseded version: caching would keep it alive
            for store, version in held:
                self._supersede_locked(store, version)
            self._full[full_key] = entry
            self._full.move_to_end(full_key)
            while len(self._full) > self.capacity:
                self._full.popitem(last=False)

    def supersede(self, store: Any, version: int) -> None:
        """``store`` has moved on to ``version``: drop every full plan
        over an older one.

        Whoever mints the version calls this, so that the plans go —
        and with them the last references to the superseded version —
        while the update is still being paid for, not inside the first
        query after it. :meth:`insert_full` applies the same rule to
        whatever reaches it unannounced.
        """
        with self._lock:
            self._supersede_locked(store, version)

    def _supersede_locked(self, store: Any, version: int) -> None:  # requires-lock: _lock
        seen = self._newest.get(store)
        if seen is not None and seen >= version:
            return
        self._newest[store] = version
        if seen is None:
            return
        stale = [
            key
            for key, entry in self._full.items()
            if any(s == store and v < version for s, v in entry.held)
        ]
        for key in stale:
            del self._full[key]

    def lookup(self, fp: Fingerprint) -> LogicalPlan | None:
        """A reusable optimized plan for this fingerprint, or ``None``."""
        with self._lock:
            entry = self._entries.get(fp.key)
            if entry is None:
                return None
            self._entries.move_to_end(fp.key)
        literals: dict[int, Literal] = {}
        for literal, spec in zip(fp.slots, entry.specs):
            if spec[0] == "exact":
                _, value, dtype = spec
                if literal.value != value or literal.dtype != dtype:
                    return None  # value-sensitive slot changed: miss
            else:
                template_literal = spec[1]
                if template_literal.value != literal.value:
                    literals[id(template_literal)] = literal
        leaves: dict[int, LogicalPlan] = {}
        for template_leaf, leaf, token in zip(entry.leaves, fp.leaves, fp.tokens):
            bound = leaves.get(id(template_leaf))
            if bound is None:
                leaves[id(template_leaf)] = template_leaf.rebind(leaf)
            elif bound.cache_token() != token:
                return None  # one template leaf, two versions: not this shape
        if not literals and not leaves:
            return entry.plan
        return _instantiate(entry.plan, literals, leaves)

    def insert(self, fp: Fingerprint, template: LogicalPlan) -> None:
        if self.capacity <= 0:
            return
        unbound = {id(leaf): leaf.rebind(None) for leaf in fp.leaves}
        if unbound:
            template = _instantiate(template, {}, unbound)
            ours = {id(leaf) for leaf in unbound.values()}
            if any(id(leaf) not in ours for leaf in template.collect_plans(_is_versioned)):
                # A rule replaced a versioned leaf with one of its own
                # making: it cannot be rebound by identity, so this
                # shape is optimized afresh every time.
                return
        survivors = {id(node) for node in _collect_literals(template)}
        counts: dict[int, int] = {}
        for literal in fp.slots:
            counts[id(literal)] = counts.get(id(literal), 0) + 1
        specs: list[tuple] = []
        for literal in fp.slots:
            # A literal object shared between two slots cannot be
            # substituted per-slot; demote every occurrence to exact.
            if counts[id(literal)] == 1 and id(literal) in survivors:
                specs.append(("sub", literal))
            else:
                specs.append(("exact", literal.value, literal.dtype))
        entry = _Entry(
            template, fp.pins, specs, [unbound[id(leaf)] for leaf in fp.leaves]
        )
        with self._lock:
            self._entries[fp.key] = entry
            self._entries.move_to_end(fp.key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


def _collect_literals(plan: LogicalPlan):
    stack: list[Any] = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, LogicalPlan):
            stack.extend(node.children)
            stack.extend(node.expressions())
        elif isinstance(node, Expression):
            if isinstance(node, Literal):
                yield node
            stack.extend(node.children)


__all__ = ["Fingerprint", "PlanCache", "fingerprint"]
