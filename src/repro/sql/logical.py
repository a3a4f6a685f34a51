"""Logical query plans.

A logical plan describes *what* to compute without fixing *how*
(paper §2, "Integration with Catalyst"). Nodes are immutable; rewrites
produce new trees via :meth:`LogicalPlan.transform_up` /
:meth:`LogicalPlan.transform_expressions`, the same machinery Catalyst
rules use.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.errors import AnalysisError
from repro.sql.expressions import (
    Alias,
    Attribute,
    Expression,
    SortOrder,
    strip_alias,
)
from repro.sql.relation import BaseRelation
from repro.sql.types import StructField, StructType

JOIN_TYPES = ("inner", "left", "right", "full", "cross", "semi", "anti")


class LogicalPlan:
    """Base class of logical operators."""

    children: tuple["LogicalPlan", ...] = ()

    # -- schema ----------------------------------------------------------

    def output(self) -> list[Attribute]:
        """The attributes this operator produces."""
        raise NotImplementedError

    @property
    def schema(self) -> StructType:
        return StructType(
            [StructField(a.name, a.dtype, a.nullable) for a in self.output()]
        )

    @property
    def resolved(self) -> bool:
        return all(c.resolved for c in self.children) and all(
            e.resolved for e in self.expressions()
        )

    # -- tree machinery ----------------------------------------------------

    def expressions(self) -> Sequence[Expression]:
        return ()

    def with_new_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        raise NotImplementedError(type(self).__name__)

    def map_expressions(
        self, fn: Callable[[Expression], Expression]
    ) -> "LogicalPlan":
        """Rebuild this node with each expression replaced by ``fn(e)``."""
        return self

    def transform_up(
        self, fn: Callable[["LogicalPlan"], "LogicalPlan"]
    ) -> "LogicalPlan":
        if self.children:
            new_children = [c.transform_up(fn) for c in self.children]
            if any(n is not o for n, o in zip(new_children, self.children)):
                node = self.with_new_children(new_children)
            else:
                node = self
        else:
            node = self
        return fn(node)

    def transform_expressions(
        self, fn: Callable[[Expression], Expression]
    ) -> "LogicalPlan":
        """Apply ``fn`` bottom-up to every expression in the whole tree."""

        def rewrite(plan: LogicalPlan) -> LogicalPlan:
            return plan.map_expressions(lambda e: e.transform_up(fn))

        return self.transform_up(rewrite)

    def collect_plans(
        self, pred: Callable[["LogicalPlan"], bool]
    ) -> Iterator["LogicalPlan"]:
        if pred(self):
            yield self
        for child in self.children:
            yield from child.collect_plans(pred)

    def pretty(self, indent: int = 0) -> str:
        """Readable multi-line plan description (like ``df.explain()``)."""
        line = "  " * indent + self.describe()
        return "\n".join([line] + [c.pretty(indent + 1) for c in self.children])

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self.pretty()


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------


class ScannableLeaf(LogicalPlan):
    """A leaf that can always lower itself to a plain row scan.

    The base planner supports any such leaf, so custom relations (like
    the Indexed DataFrame's) remain executable even when their special
    strategies are not installed — the paper's "fall back to a regular
    Spark Row RDD" guarantee.
    """

    def scan_exec(self, ctx: "object") -> "object":
        """Return a PhysicalPlan scanning this leaf's rows."""
        raise NotImplementedError


class VersionedLeaf(ScannableLeaf):
    """A leaf over one version of a store that mints a version per update.

    Everything :mod:`repro.sql.plan_cache` knows about such leaves: two
    queries of one shape against two versions of one store share a plan
    template, and reusing it means putting the incoming leaf's version
    under the template's attribute ids.
    """

    def cache_token(self) -> "tuple[Any, Any, int]":
        """``(store, layout, version)``.

        ``store`` identifies the versioned store for as long as the
        process lives (never reused, so it needs no pinning); ``layout``
        is whatever else about the scan an optimizer rule could depend
        on — everything but the rows; ``version`` orders the versions
        of that store, later ones larger.
        """
        raise NotImplementedError

    def rebind(self, source: "VersionedLeaf | None") -> "VersionedLeaf":
        """This leaf — same attribute ids — over ``source``'s version.

        ``None`` unbinds: the result reads nothing and keeps nothing
        alive; it only stands in a cached template until the next
        ``rebind``.
        """
        raise NotImplementedError


class Relation(LogicalPlan):
    """Leaf scanning an in-memory relation.

    Every instantiation mints *fresh* attribute ids mapped positionally
    onto the relation's columns, so scanning the same table twice (a
    self-join) yields unambiguous references.
    """

    def __init__(self, relation: BaseRelation, attributes: list[Attribute] | None = None):
        self.relation = relation
        if attributes is None:
            attributes = [
                Attribute(f.name, f.dtype, None, None, f.nullable)
                for f in relation.schema
            ]
        self._attributes = attributes

    def output(self) -> list[Attribute]:
        return list(self._attributes)

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Relation":
        return self

    def fresh_copy(self) -> "Relation":
        """Same relation, fresh attribute ids (new scan instance)."""
        return Relation(self.relation)

    def describe(self) -> str:
        return f"Relation[{type(self.relation).__name__}] {self._attributes}"


class UnresolvedRelation(LogicalPlan):
    """A table referenced by name, resolved against the session catalog
    before analysis."""

    def __init__(self, name: str):
        self.name = name

    def output(self) -> list[Attribute]:
        raise AnalysisError(f"table {self.name!r} is not resolved")

    @property
    def resolved(self) -> bool:
        return False

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "UnresolvedRelation":
        return self

    def describe(self) -> str:
        return f"UnresolvedRelation[{self.name}]"


class LocalRelation(LogicalPlan):
    """Leaf holding literal rows (used for empty/constant relations)."""

    def __init__(self, attributes: list[Attribute], rows: list[tuple]):
        self._attributes = attributes
        self.rows = rows

    def output(self) -> list[Attribute]:
        return list(self._attributes)

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "LocalRelation":
        return self

    def describe(self) -> str:
        return f"LocalRelation({len(self.rows)} rows)"


# ----------------------------------------------------------------------
# Unary operators
# ----------------------------------------------------------------------


class UnaryNode(LogicalPlan):
    def __init__(self, child: LogicalPlan):
        self.child = child
        self.children = (child,)


class Project(UnaryNode):
    """Select list: a mix of Attributes, Aliases, and (pre-analysis)
    unresolved expressions / stars."""

    def __init__(self, project_list: Sequence[Expression], child: LogicalPlan):
        super().__init__(child)
        self.project_list = list(project_list)

    def output(self) -> list[Attribute]:
        out = []
        for expr in self.project_list:
            if isinstance(expr, Attribute):
                out.append(expr)
            elif isinstance(expr, Alias):
                out.append(expr.to_attribute())
            else:
                raise AnalysisError(
                    f"unresolved expression in project list: {expr!r}"
                )
        return out

    def expressions(self) -> Sequence[Expression]:
        return self.project_list

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Project":
        return Project(self.project_list, children[0])

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Project":
        rebuilt = [fn(e) for e in self.project_list]
        if all(n is o for n, o in zip(rebuilt, self.project_list)):
            return self
        return Project(rebuilt, self.child)

    def describe(self) -> str:
        return f"Project{self.project_list}"


class Filter(UnaryNode):
    def __init__(self, condition: Expression, child: LogicalPlan):
        super().__init__(child)
        self.condition = condition

    def output(self) -> list[Attribute]:
        return self.child.output()

    def expressions(self) -> Sequence[Expression]:
        return (self.condition,)

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Filter":
        return Filter(self.condition, children[0])

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Filter":
        condition = fn(self.condition)
        if condition is self.condition:
            return self
        return Filter(condition, self.child)

    def describe(self) -> str:
        return f"Filter[{self.condition!r}]"


class Aggregate(UnaryNode):
    """Grouped aggregation.

    ``aggregate_list`` entries must be named (Attribute or Alias) after
    analysis; grouping expressions may appear in it verbatim.
    """

    def __init__(
        self,
        grouping: Sequence[Expression],
        aggregate_list: Sequence[Expression],
        child: LogicalPlan,
    ):
        super().__init__(child)
        self.grouping = list(grouping)
        self.aggregate_list = list(aggregate_list)

    def output(self) -> list[Attribute]:
        out = []
        for expr in self.aggregate_list:
            if isinstance(expr, Attribute):
                out.append(expr)
            elif isinstance(expr, Alias):
                out.append(expr.to_attribute())
            else:
                raise AnalysisError(f"unnamed aggregate expression: {expr!r}")
        return out

    def expressions(self) -> Sequence[Expression]:
        return [*self.grouping, *self.aggregate_list]

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        return Aggregate(self.grouping, self.aggregate_list, children[0])

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Aggregate":
        grouping = [fn(e) for e in self.grouping]
        aggregates = [fn(e) for e in self.aggregate_list]
        unchanged = all(n is o for n, o in zip(grouping, self.grouping)) and all(
            n is o for n, o in zip(aggregates, self.aggregate_list)
        )
        if unchanged:
            return self
        return Aggregate(grouping, aggregates, self.child)

    def describe(self) -> str:
        return f"Aggregate[group={self.grouping}, agg={self.aggregate_list}]"


class Sort(UnaryNode):
    def __init__(self, orders: Sequence[SortOrder], child: LogicalPlan):
        super().__init__(child)
        self.orders = list(orders)

    def output(self) -> list[Attribute]:
        return self.child.output()

    def expressions(self) -> Sequence[Expression]:
        return self.orders

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        return Sort(self.orders, children[0])

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Sort":
        new_orders = []
        changed = False
        for order in self.orders:
            rewritten = fn(order)
            if rewritten is not order:
                changed = True
                if not isinstance(rewritten, SortOrder):
                    rewritten = SortOrder(rewritten, order.ascending, order.nulls_first)
            new_orders.append(rewritten)
        if not changed:
            return self
        return Sort(new_orders, self.child)

    def describe(self) -> str:
        return f"Sort{self.orders}"


class Limit(UnaryNode):
    def __init__(self, n: int, child: LogicalPlan):
        super().__init__(child)
        if n < 0:
            raise AnalysisError("LIMIT must be non-negative")
        self.n = n

    def output(self) -> list[Attribute]:
        return self.child.output()

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        return Limit(self.n, children[0])

    def describe(self) -> str:
        return f"Limit[{self.n}]"


class Distinct(UnaryNode):
    def output(self) -> list[Attribute]:
        return self.child.output()

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        return Distinct(children[0])


class SubqueryAlias(UnaryNode):
    """Attaches a qualifier (``FROM t AS alias``) to a child's output."""

    def __init__(self, alias: str, child: LogicalPlan):
        super().__init__(child)
        self.alias = alias

    def output(self) -> list[Attribute]:
        return [a.with_qualifier(self.alias) for a in self.child.output()]

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "SubqueryAlias":
        return SubqueryAlias(self.alias, children[0])

    def describe(self) -> str:
        return f"SubqueryAlias[{self.alias}]"


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------


class Join(LogicalPlan):
    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        how: str = "inner",
        condition: Expression | None = None,
    ):
        how = how.lower().replace("_outer", "")
        if how not in JOIN_TYPES:
            raise AnalysisError(f"unsupported join type: {how!r}")
        if how == "cross" and condition is not None:
            raise AnalysisError("cross join cannot have a condition")
        if how != "cross" and condition is None:
            raise AnalysisError(f"{how} join requires a condition")
        self.left = left
        self.right = right
        self.how = how
        self.condition = condition
        self.children = (left, right)

    def output(self) -> list[Attribute]:
        left_out = self.left.output()
        right_out = self.right.output()
        if self.how == "left":
            right_out = [
                Attribute(a.name, a.dtype, a.expr_id, a.qualifier, True)
                for a in right_out
            ]
        elif self.how == "right":
            left_out = [
                Attribute(a.name, a.dtype, a.expr_id, a.qualifier, True)
                for a in left_out
            ]
        elif self.how == "full":
            left_out = [
                Attribute(a.name, a.dtype, a.expr_id, a.qualifier, True)
                for a in left_out
            ]
            right_out = [
                Attribute(a.name, a.dtype, a.expr_id, a.qualifier, True)
                for a in right_out
            ]
        elif self.how in ("semi", "anti"):
            return left_out
        return left_out + right_out

    def expressions(self) -> Sequence[Expression]:
        return (self.condition,) if self.condition is not None else ()

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Join":
        return Join(children[0], children[1], self.how, self.condition)

    def map_expressions(self, fn: Callable[[Expression], Expression]) -> "Join":
        if self.condition is None:
            return self
        condition = fn(self.condition)
        if condition is self.condition:
            return self
        return Join(self.left, self.right, self.how, condition)

    def describe(self) -> str:
        return f"Join[{self.how}, {self.condition!r}]"


class Union(LogicalPlan):
    def __init__(self, left: LogicalPlan, right: LogicalPlan):
        self.left = left
        self.right = right
        self.children = (left, right)

    def output(self) -> list[Attribute]:
        return self.left.output()

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "Union":
        return Union(children[0], children[1])


# ----------------------------------------------------------------------
# Helpers shared by the analyzer / optimizer
# ----------------------------------------------------------------------


def named_expression(expr: Expression, fallback: str) -> Expression:
    """Ensure an expression is named (wrap in Alias if needed)."""
    if isinstance(expr, (Attribute, Alias)):
        return expr
    return Alias(expr, fallback)


def expression_name(expr: Expression) -> str:
    """Best-effort display name for an expression in a select list."""
    stripped = strip_alias(expr)
    if isinstance(expr, Alias):
        return expr.name
    if isinstance(stripped, Attribute):
        return stripped.name
    return repr(stripped)


def attributes_cover(required: set[Attribute], provided: Sequence[Attribute]) -> bool:
    """True if every required attribute id is produced by ``provided``."""
    ids = {a.expr_id for a in provided}
    return all(a.expr_id in ids for a in required)


def instantiate_plan(plan: LogicalPlan) -> LogicalPlan:
    """Deep-copy a plan with fresh attribute/alias ids.

    Used when a catalog plan is referenced: each reference becomes an
    independent instance, so a table used twice in one query (a
    self-join) produces unambiguous attributes — Catalyst's
    deduplication of relation instances.
    """
    mapping: dict[int, Attribute] = {}

    def remap_expr(expr: Expression) -> Expression:
        if isinstance(expr, Attribute) and expr.expr_id in mapping:
            fresh = mapping[expr.expr_id]
            return Attribute(
                expr.name, fresh.dtype, fresh.expr_id, expr.qualifier, fresh.nullable
            )
        return expr

    def rebuild(node: LogicalPlan) -> LogicalPlan:
        fresh_copy = getattr(node, "fresh_copy", None)
        if callable(fresh_copy) and not node.children:
            fresh = fresh_copy()
            for old, new in zip(node.output(), fresh.output()):
                mapping[old.expr_id] = new
            return fresh
        node = node.map_expressions(lambda e: e.transform_up(remap_expr))
        # Aliases define new ids referenced upstream: re-mint them too.
        if isinstance(node, (Project, Aggregate)):
            exprs = (
                node.project_list if isinstance(node, Project) else node.aggregate_list
            )
            fresh_exprs: list[Expression] = []
            for expr in exprs:
                if isinstance(expr, Alias):
                    fresh_alias = Alias(expr.child, expr.name)
                    if expr.child.resolved:
                        mapping[expr.expr_id] = fresh_alias.to_attribute()
                    fresh_exprs.append(fresh_alias)
                else:
                    fresh_exprs.append(expr)
            if isinstance(node, Project):
                return Project(fresh_exprs, node.child)
            return Aggregate(node.grouping, fresh_exprs, node.child)
        return node

    return plan.transform_up(rebuild)
