"""Physical operators: executable plans compiling to RDDs.

Each operator exposes ``output`` (attributes, for binding) and
``execute()`` returning an RDD of plain tuples. Expressions are bound
to tuple ordinals once, at construction, so per-row evaluation never
touches names (paper Figure 1, "Physical Execution Layer").

Join selection mirrors Spark: a *broadcast hash join* when one side is
estimated small (``Config.broadcast_threshold``), otherwise a
*shuffled hash join* built on cogroup. The indexed operators in
:mod:`repro.core.physical` extend :class:`PhysicalPlan` and slot into
the same pipeline.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro import codegen
from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.errors import PlanningError
from repro.index.bitmap import iter_bits
from repro.serving.context import check_cancelled
from repro.sql.expressions import (
    AggregateExpression,
    Alias,
    Attribute,
    BoundReference,
    Expression,
    SortOrder,
    strip_alias,
)
from repro.sql.relation import BaseRelation
from repro.sql.types import StructField, StructType
from repro.stats import extract_pruning_predicates


def bind_expression(expr: Expression, input_attrs: Sequence[Attribute]) -> Expression:
    """Replace Attribute references with ordinal BoundReferences."""
    ordinals = {a.expr_id: i for i, a in enumerate(input_attrs)}

    def bind(node: Expression) -> Expression:
        if isinstance(node, Attribute):
            if node.expr_id not in ordinals:
                raise PlanningError(
                    f"attribute {node!r} not found among inputs {list(input_attrs)}"
                )
            return BoundReference(ordinals[node.expr_id], node.dtype, node.name)
        return node

    return expr.transform_up(bind)


class PhysicalPlan:
    """Base class for physical operators.

    Every concrete operator declares its **partitioning contract** with
    a class-level ``PARTITIONING`` attribute — ``"source"`` (creates
    partitions), ``"narrow"`` (per-partition transform), ``"exchange"``
    (repartitions by key), or ``"driver"`` (materializes on the
    driver). The declaration is checked against the operator body by
    ``python -m repro.analysis`` (rules PC001/PC002), which also
    enforces the EXPLAIN-marker contracts: pruning and adaptive
    decisions must be visible in :meth:`describe` output.
    """

    children: tuple["PhysicalPlan", ...] = ()

    def __init__(self, ctx: EngineContext, output: Sequence[Attribute]):
        self.ctx = ctx
        self.output = list(output)

    @property
    def schema(self) -> StructType:
        return StructType([StructField(a.name, a.dtype, a.nullable) for a in self.output])

    def execute(self) -> RDD:
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        line = "  " * indent + self.describe()
        return "\n".join([line] + [c.pretty(indent + 1) for c in self.children])

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self.pretty()


class ScanExec(PhysicalPlan):
    """Scan of an in-memory relation, optionally column-pruned.

    On a :class:`~repro.sql.relation.ColumnarRelation` a pruned scan
    touches only the projected column vectors — vanilla Spark's edge in
    the projection microbenchmark.
    """

    PARTITIONING = "source"

    def __init__(
        self,
        ctx: EngineContext,
        relation: BaseRelation,
        output: Sequence[Attribute],
        columns: Sequence[int] | None = None,
    ):
        super().__init__(ctx, output)
        self.relation = relation
        self.columns = list(columns) if columns is not None else None
        self._keep: list[int] | None = None
        self._pruned = 0

    def apply_pruning(self, condition: Expression) -> None:
        """Use zone maps to skip partitions a filter can never match.

        Called by the planner with the filter condition sitting directly
        above this scan. Predicate ordinals come from ``self.output``
        (the scan's *projected* columns), so they are mapped back through
        ``self.columns`` to storage ordinals before consulting the zone
        maps. Sound by the zone-map contract: ``may_match`` never returns
        False for a zone containing a matching row, and the filter above
        still re-checks every surviving row.
        """
        predicates = extract_pruning_predicates(condition, self.output)
        if not predicates:
            return
        if self.columns is not None:
            cols = self.columns
            predicates = [p.with_ordinal(cols[p.ordinal]) for p in predicates]
        zones = self.relation.partition_zones()
        keep = [i for i, zone in enumerate(zones) if zone.may_match(predicates)]
        self._pruned = len(zones) - len(keep)
        if self._pruned:
            self._keep = keep
        self.ctx.pruning_metrics.record_scan(
            partitions_total=len(zones), partitions_pruned=self._pruned
        )

    def execute(self) -> RDD:
        return self.relation.to_rdd(self.ctx, self.columns, self._keep)

    def describe(self) -> str:
        cols = "all" if self.columns is None else self.columns
        base = f"Scan[{type(self.relation).__name__}, columns={cols}"
        if self._pruned and self._keep is not None:
            total = self._pruned + len(self._keep)
            base = f"{base}, zone_pruned={self._pruned}/{total}"
        return base + "]"


class LocalDataExec(PhysicalPlan):
    """A small local list of rows (constant relations)."""

    PARTITIONING = "source"

    def __init__(self, ctx: EngineContext, rows: list[tuple], output: Sequence[Attribute]):
        super().__init__(ctx, output)
        self.rows = rows

    def execute(self) -> RDD:
        return self.ctx.parallelize(self.rows, 1)


class FilterExec(PhysicalPlan):
    PARTITIONING = "narrow"

    def __init__(self, condition: Expression, child: PhysicalPlan):
        super().__init__(child.ctx, child.output)
        self.children = (child,)
        self.condition = bind_expression(condition, child.output)

    def execute(self) -> RDD:
        predicate = self.condition
        if self.ctx.config.codegen_enabled:
            kernel = codegen.try_filter_project_kernel(predicate, None)
            if kernel is not None:
                return self.children[0].execute().map_partitions(
                    codegen.chunked(kernel), preserves_partitioning=True
                )

        def keep(row: tuple) -> bool:
            return predicate.eval(row) is True

        return self.children[0].execute().filter(keep)

    def describe(self) -> str:
        return f"Filter[{self.condition!r}]"


class ProjectExec(PhysicalPlan):
    """Projection, optionally with a fused filter.

    ``fused_filter`` carries a selection predicate evaluated against
    the *child's* rows before projecting — the planner supplies it for
    a ``Project(Filter(...))`` pair when codegen is on, so filter and
    projection run as one compiled batch kernel (the moral equivalent
    of Spark fusing both into a single WholeStageCodegen stage).
    """

    PARTITIONING = "narrow"

    def __init__(
        self,
        project_list: Sequence[Expression],
        child: PhysicalPlan,
        fused_filter: Expression | None = None,
    ):
        output = []
        for expr in project_list:
            if isinstance(expr, Attribute):
                output.append(expr)
            elif isinstance(expr, Alias):
                output.append(expr.to_attribute())
            else:
                raise PlanningError(f"unnamed projection {expr!r}")
        super().__init__(child.ctx, output)
        self.children = (child,)
        self.bound = [bind_expression(e, child.output) for e in project_list]
        self.fused_filter = (
            bind_expression(fused_filter, child.output)
            if fused_filter is not None
            else None
        )

    def execute(self) -> RDD:
        exprs = self.bound
        condition = self.fused_filter
        if self.ctx.config.codegen_enabled:
            kernel = codegen.try_filter_project_kernel(condition, exprs)
            if kernel is not None:
                return self.children[0].execute().map_partitions(
                    codegen.chunked(kernel)
                )

        child_rdd = self.children[0].execute()
        if condition is not None:
            child_rdd = child_rdd.filter(lambda row: condition.eval(row) is True)

        def project(row: tuple) -> tuple:
            return tuple(e.eval(row) for e in exprs)

        return child_rdd.map(project)

    def describe(self) -> str:
        names = [a.name for a in self.output]
        if self.fused_filter is not None:
            return f"Project[{names}, fused_filter={self.fused_filter!r}]"
        return f"Project[{names}]"


class UnionExec(PhysicalPlan):
    PARTITIONING = "narrow"

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan):
        super().__init__(left.ctx, left.output)
        self.children = (left, right)

    def execute(self) -> RDD:
        return self.children[0].execute().union(self.children[1].execute())


class LimitExec(PhysicalPlan):
    PARTITIONING = "driver"

    def __init__(self, n: int, child: PhysicalPlan):
        super().__init__(child.ctx, child.output)
        self.children = (child,)
        self.n = n

    def execute(self) -> RDD:
        rows = self.children[0].execute().take(self.n)
        return self.ctx.parallelize(rows, 1)

    def describe(self) -> str:
        return f"Limit[{self.n}]"


class DistinctExec(PhysicalPlan):
    PARTITIONING = "exchange"

    def __init__(self, child: PhysicalPlan):
        super().__init__(child.ctx, child.output)
        self.children = (child,)

    def execute(self) -> RDD:
        return self.children[0].execute().distinct(
            self.ctx.config.shuffle_partitions
        )


class _SortKey:
    """Composite, direction-aware, null-aware sort key."""

    __slots__ = ("values",)

    def __init__(self, values: tuple):
        self.values = values

    def __lt__(self, other: "_SortKey") -> bool:
        return self.values < other.values

    def __le__(self, other: "_SortKey") -> bool:
        return self.values <= other.values

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)


def _bind_orders(
    orders: Sequence[SortOrder], input_attrs: Sequence[Attribute]
) -> list[SortOrder]:
    return [
        SortOrder(bind_expression(o.child, input_attrs), o.ascending, o.nulls_first)
        for o in orders
    ]


def _sort_key_fn(
    orders: Sequence[SortOrder], codegen_enabled: bool
) -> Callable[[tuple], _SortKey]:
    """The composite sort key of bound ``orders``: ascending order of
    the key is the requested row order, nulls placed as asked."""
    getters = [
        (codegen.value_fn(o.child, codegen_enabled), o.ascending, o.nulls_first)
        for o in orders
    ]

    def key(row: tuple) -> _SortKey:
        parts = []
        for get, ascending, nulls_first in getters:
            value = get(row)
            if value is None:
                # Null ordering: a leading rank keeps None comparable.
                rank = 0 if nulls_first == ascending else 2
                parts.append((rank, 0))
            else:
                if not ascending:
                    value = _Reversed(value)
                parts.append((1, value))
        return _SortKey(tuple(parts))

    return key


class SortExec(PhysicalPlan):
    """Total sort: range partition on the composite key, sort locally."""

    PARTITIONING = "exchange"

    def __init__(self, orders: Sequence[SortOrder], child: PhysicalPlan):
        super().__init__(child.ctx, child.output)
        self.children = (child,)
        self.orders = _bind_orders(orders, child.output)

    def execute(self) -> RDD:
        key_fn = _sort_key_fn(self.orders, self.ctx.config.codegen_enabled)
        return self.children[0].execute().sort_by(key_fn)

    def describe(self) -> str:
        return f"Sort{self.orders}"


class TakeOrderedExec(PhysicalPlan):
    """Top-K: ``LIMIT n`` over ``ORDER BY`` fused into a heap select.

    Each partition keeps only its n smallest rows (by the composite
    sort key), then the driver merges the per-partition winners —
    Spark's ``TakeOrderedAndProject``. Avoids the full shuffle sort
    for the very common "most recent k" query shape (e.g. SNB SQ2).
    """

    PARTITIONING = "driver"

    def __init__(self, n: int, orders: Sequence[SortOrder], child: PhysicalPlan):
        super().__init__(child.ctx, child.output)
        self.children = (child,)
        self.n = n
        self.orders = _bind_orders(orders, child.output)

    def execute(self) -> RDD:
        import heapq

        n = self.n
        if n == 0:
            return self.ctx.parallelize([], 1)
        key_fn = _sort_key_fn(self.orders, self.ctx.config.codegen_enabled)

        def local_top(rows: Iterator[tuple]) -> Iterator[tuple]:
            return iter(heapq.nsmallest(n, rows, key=key_fn))

        candidates = (
            self.children[0].execute().map_partitions(local_top).collect()
        )
        top = heapq.nsmallest(n, candidates, key=key_fn)
        return self.ctx.parallelize(top, 1)

    def describe(self) -> str:
        return f"TakeOrdered[n={self.n}]"


class _Reversed:
    """Inverts comparison order for descending sort components."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __le__(self, other: "_Reversed") -> bool:
        return other.value <= self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


class _AggSpec:
    """Streaming accumulator for one aggregate function."""

    def __init__(self, fn_name: str, value_expr: Expression | None):
        self.fn_name = fn_name
        self.value_expr = value_expr

    def create(self) -> Any:
        if self.fn_name in ("count",):
            return 0
        if self.fn_name == "count_distinct":
            return set()
        if self.fn_name == "avg":
            return (0, 0.0)  # (count, sum)
        if self.fn_name == "first":
            return (False, None)
        return None  # sum / min / max start empty

    def update(self, acc: Any, row: tuple) -> Any:
        value = self.value_expr.eval(row) if self.value_expr is not None else 1
        if self.fn_name == "count":
            return acc + (1 if (self.value_expr is None or value is not None) else 0)
        if value is None:
            return acc
        if self.fn_name == "count_distinct":
            acc.add(value)
            return acc
        if self.fn_name == "sum":
            return value if acc is None else acc + value
        if self.fn_name == "min":
            return value if acc is None or value < acc else acc
        if self.fn_name == "max":
            return value if acc is None or value > acc else acc
        if self.fn_name == "avg":
            count, total = acc
            return (count + 1, total + value)
        if self.fn_name == "first":
            seen, current = acc
            return acc if seen else (True, value)
        raise PlanningError(f"unknown aggregate {self.fn_name}")

    def merge(self, a: Any, b: Any) -> Any:
        if self.fn_name == "count":
            return a + b
        if self.fn_name == "count_distinct":
            a.update(b)
            return a
        if self.fn_name == "sum":
            if a is None:
                return b
            return a if b is None else a + b
        if self.fn_name == "min":
            if a is None:
                return b
            return a if b is None or a < b else b
        if self.fn_name == "max":
            if a is None:
                return b
            return a if b is None or a > b else b
        if self.fn_name == "avg":
            return (a[0] + b[0], a[1] + b[1])
        if self.fn_name == "first":
            return a if a[0] else b
        raise PlanningError(f"unknown aggregate {self.fn_name}")

    def result(self, acc: Any) -> Any:
        if self.fn_name == "count_distinct":
            return len(acc)
        if self.fn_name == "avg":
            count, total = acc
            return None if count == 0 else total / count
        if self.fn_name == "first":
            return acc[1]
        return acc

    def make_updater(self, enabled: bool = True) -> Callable[[Any, tuple], Any]:
        """A hoisted ``(acc, row) -> acc`` closure.

        Equivalent to :meth:`update` but with the string dispatch
        resolved once and the value expression compiled, so the hot
        per-row loop does no name-based branching.
        """
        fn_name = self.fn_name
        if self.value_expr is None:
            if fn_name == "count":  # COUNT(*) counts every row
                return lambda acc, row: acc + 1
            get = lambda row: 1  # noqa: E731 - matches update()'s default
        else:
            get = codegen.value_fn(self.value_expr, enabled)

        if fn_name == "count":
            return lambda acc, row: acc + (0 if get(row) is None else 1)

        if fn_name == "count_distinct":
            def update_distinct(acc: Any, row: tuple) -> Any:
                value = get(row)
                if value is not None:
                    acc.add(value)
                return acc

            return update_distinct

        if fn_name == "sum":
            def update_sum(acc: Any, row: tuple) -> Any:
                value = get(row)
                if value is None:
                    return acc
                return value if acc is None else acc + value

            return update_sum

        if fn_name == "min":
            def update_min(acc: Any, row: tuple) -> Any:
                value = get(row)
                if value is None:
                    return acc
                return value if acc is None or value < acc else acc

            return update_min

        if fn_name == "max":
            def update_max(acc: Any, row: tuple) -> Any:
                value = get(row)
                if value is None:
                    return acc
                return value if acc is None or value > acc else acc

            return update_max

        if fn_name == "avg":
            def update_avg(acc: Any, row: tuple) -> Any:
                value = get(row)
                if value is None:
                    return acc
                return (acc[0] + 1, acc[1] + value)

            return update_avg

        if fn_name == "first":
            def update_first(acc: Any, row: tuple) -> Any:
                if acc[0]:
                    return acc
                value = get(row)
                return acc if value is None else (True, value)

            return update_first

        raise PlanningError(f"unknown aggregate {fn_name}")


class HashAggregateExec(PhysicalPlan):
    """Two-phase hash aggregation: partial per partition, shuffle by
    group key, final merge (Spark's partial/final HashAggregate)."""

    PARTITIONING = "driver"

    def __init__(
        self,
        grouping: Sequence[Expression],
        aggregate_list: Sequence[Expression],
        child: PhysicalPlan,
    ):
        output = []
        for expr in aggregate_list:
            if isinstance(expr, Attribute):
                output.append(expr)
            elif isinstance(expr, Alias):
                output.append(expr.to_attribute())
            else:
                raise PlanningError(f"unnamed aggregate output {expr!r}")
        super().__init__(child.ctx, output)
        self.children = (child,)
        self.grouping_bound = [bind_expression(g, child.output) for g in grouping]

        # Split output expressions into group-key projections and
        # aggregate accumulators.
        self._specs: list[_AggSpec] = []
        self._out_plan: list[tuple[str, int]] = []  # ("group", i) | ("agg", j)
        group_keys = [strip_alias(g) for g in grouping]
        for expr in aggregate_list:
            inner = strip_alias(expr)
            if isinstance(inner, AggregateExpression):
                value_expr = (
                    bind_expression(inner.child, child.output)
                    if inner.child is not None
                    else None
                )
                fn_name = inner.fn_name
                if inner.distinct and fn_name == "count":
                    fn_name = "count_distinct"
                self._specs.append(_AggSpec(fn_name, value_expr))
                self._out_plan.append(("agg", len(self._specs) - 1))
            else:
                position = None
                for i, g in enumerate(group_keys):
                    if inner.semantic_equals(g):
                        position = i
                        break
                if position is None and isinstance(inner, Attribute):
                    for i, g in enumerate(group_keys):
                        if isinstance(g, Attribute) and g.expr_id == inner.expr_id:
                            position = i
                            break
                if position is None:
                    raise PlanningError(
                        f"aggregate output {expr!r} is neither an aggregate nor "
                        f"a grouping expression"
                    )
                self._out_plan.append(("group", position))

    # -- helpers --------------------------------------------------------

    def _make_partial(self) -> Callable[[Iterator[tuple]], Iterator[tuple[tuple, list]]]:
        """Build the per-partition partial-aggregation closure once.

        The grouping-key extractor is compiled and each spec's update
        is resolved to a hoisted closure, so the row loop is free of
        tree walks and string dispatch.
        """
        specs = self._specs
        enabled = self.ctx.config.codegen_enabled
        if self.grouping_bound:
            key_of = codegen.key_fn(self.grouping_bound, enabled=enabled)
        else:
            key_of = lambda row: ()  # noqa: E731 - global aggregate
        updaters = list(enumerate(spec.make_updater(enabled) for spec in specs))

        def partial(rows: Iterator[tuple]) -> Iterator[tuple[tuple, list]]:
            groups: dict[tuple, list] = {}
            get_group = groups.get
            for row in rows:
                key = key_of(row)
                accs = get_group(key)
                if accs is None:
                    accs = [spec.create() for spec in specs]
                    groups[key] = accs
                for i, update in updaters:
                    accs[i] = update(accs[i], row)
            return iter(groups.items())

        return partial

    def _merge(self, a: list, b: list) -> list:
        return [spec.merge(x, y) for spec, x, y in zip(self._specs, a, b)]

    def _finish(self, key: tuple, accs: list) -> tuple:
        out = []
        for kind, index in self._out_plan:
            if kind == "group":
                out.append(key[index])
            else:
                out.append(self._specs[index].result(accs[index]))
        return tuple(out)

    def execute(self) -> RDD:
        child_rdd = self.children[0].execute()
        partial_fn = self._make_partial()
        if not self.grouping_bound:
            # Global aggregate: merge partials on the driver so empty
            # input still yields exactly one row.
            partials = child_rdd.map_partitions(
                lambda it: list(partial_fn(it))
            ).collect()
            accs = [spec.create() for spec in self._specs]
            for _key, part in partials:
                accs = self._merge(accs, part)
            return self.ctx.parallelize([self._finish((), accs)], 1)
        partial = child_rdd.map_partitions(partial_fn)
        merged = partial.reduce_by_key(
            self._merge, self.ctx.config.shuffle_partitions
        )
        return merged.map(lambda kv: self._finish(kv[0], kv[1]))

    def describe(self) -> str:
        return f"HashAggregate[keys={len(self.grouping_bound)}, aggs={len(self._specs)}]"


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


def _null_row(width: int) -> tuple:
    return (None,) * width


class ShuffledHashJoinExec(PhysicalPlan):
    """Equi-join via cogroup on the join keys.

    Rows whose key contains NULL never match (SQL semantics); for outer
    joins they are re-emitted padded with NULLs.
    """

    PARTITIONING = "exchange"

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        left_keys: Sequence[Expression],
        right_keys: Sequence[Expression],
        how: str,
        extra_condition: Expression | None = None,
    ):
        output = _join_output(left, right, how)
        super().__init__(left.ctx, output)
        self.children = (left, right)
        self.how = how
        self.left_keys = [bind_expression(k, left.output) for k in left_keys]
        self.right_keys = [bind_expression(k, right.output) for k in right_keys]
        self.extra = (
            bind_expression(extra_condition, list(left.output) + list(right.output))
            if extra_condition is not None
            else None
        )

    def execute(self) -> RDD:
        how = self.how
        lwidth = len(self.children[0].output)
        rwidth = len(self.children[1].output)
        enabled = self.ctx.config.codegen_enabled
        lkey = codegen.key_fn(self.left_keys, null_to_none=True, enabled=enabled)
        rkey = codegen.key_fn(self.right_keys, null_to_none=True, enabled=enabled)
        extra = codegen.predicate_fn(self.extra, enabled)

        left_kv = self.children[0].execute().map(lambda r: (lkey(r), r))
        right_kv = self.children[1].execute().map(lambda r: (rkey(r), r))

        matchable_left = left_kv.filter(lambda kv: kv[0] is not None)
        matchable_right = right_kv.filter(lambda kv: kv[0] is not None)
        grouped = matchable_left.cogroup(
            matchable_right, self.ctx.config.shuffle_partitions
        )

        def emit(kv: tuple) -> Iterator[tuple]:
            _key, (lefts, rights) = kv
            if how in ("inner", "cross"):
                for lrow in lefts:
                    for rrow in rights:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            yield combined
            elif how == "left":
                for lrow in lefts:
                    matched = False
                    for rrow in rights:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            matched = True
                            yield combined
                    if not matched:
                        yield lrow + _null_row(rwidth)
            elif how == "right":
                for rrow in rights:
                    matched = False
                    for lrow in lefts:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            matched = True
                            yield combined
                    if not matched:
                        yield _null_row(lwidth) + rrow
            elif how == "full":
                matched_right = [False] * len(rights)
                for lrow in lefts:
                    matched = False
                    for j, rrow in enumerate(rights):
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            matched = True
                            matched_right[j] = True
                            yield combined
                    if not matched:
                        yield lrow + _null_row(rwidth)
                for j, rrow in enumerate(rights):
                    if not matched_right[j]:
                        yield _null_row(lwidth) + rrow
            elif how == "semi":
                for lrow in lefts:
                    for rrow in rights:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            yield lrow
                            break
            elif how == "anti":
                for lrow in lefts:
                    hit = False
                    for rrow in rights:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            hit = True
                            break
                    if not hit:
                        yield lrow

        joined = grouped.flat_map(emit)

        # Null-keyed rows re-enter for the outer variants.
        if how in ("left", "full"):
            null_left = left_kv.filter(lambda kv: kv[0] is None).map(
                lambda kv: kv[1] + _null_row(rwidth)
            )
            joined = joined.union(null_left)
        if how in ("right", "full"):
            null_right = right_kv.filter(lambda kv: kv[0] is None).map(
                lambda kv: _null_row(lwidth) + kv[1]
            )
            joined = joined.union(null_right)
        if how == "anti":
            null_left = left_kv.filter(lambda kv: kv[0] is None).map(lambda kv: kv[1])
            joined = joined.union(null_left)
        return joined

    def describe(self) -> str:
        return f"ShuffledHashJoin[{self.how}]"


class BroadcastHashJoinExec(PhysicalPlan):
    """Hash join with the (small) right side broadcast to every task.

    Supports inner / cross / left / semi / anti, all streaming the left
    side — the shapes where a broadcast build is valid without global
    match tracking.
    """

    PARTITIONING = "driver"

    SUPPORTED = ("inner", "cross", "left", "semi", "anti")

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        left_keys: Sequence[Expression],
        right_keys: Sequence[Expression],
        how: str,
        extra_condition: Expression | None = None,
    ):
        if how not in self.SUPPORTED:
            raise PlanningError(f"broadcast join does not support {how!r}")
        output = _join_output(left, right, how)
        super().__init__(left.ctx, output)
        self.children = (left, right)
        self.how = how
        self.left_keys = [bind_expression(k, left.output) for k in left_keys]
        self.right_keys = [bind_expression(k, right.output) for k in right_keys]
        self.extra = (
            bind_expression(extra_condition, list(left.output) + list(right.output))
            if extra_condition is not None
            else None
        )

    def execute(self) -> RDD:
        how = self.how
        rwidth = len(self.children[1].output)
        enabled = self.ctx.config.codegen_enabled
        lkey = codegen.key_fn(self.left_keys, null_to_none=True, enabled=enabled)
        rkey = codegen.key_fn(self.right_keys, null_to_none=True, enabled=enabled)
        extra = codegen.predicate_fn(self.extra, enabled)

        build: dict[tuple, list[tuple]] = {}
        for rrow in self.children[1].execute().collect():
            key = rkey(rrow)
            if key is None:
                continue
            build.setdefault(key, []).append(rrow)
        shared = self.ctx.broadcast(build)

        def probe(rows: Iterator[tuple]) -> Iterator[tuple]:
            table = shared.value
            table_get = table.get
            for lrow in rows:
                key = lkey(lrow)
                candidates = () if key is None else table_get(key, ())
                if how in ("inner", "cross"):
                    for rrow in candidates:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            yield combined
                elif how == "left":
                    matched = False
                    for rrow in candidates:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            matched = True
                            yield combined
                    if not matched:
                        yield lrow + _null_row(rwidth)
                elif how == "semi":
                    for rrow in candidates:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            yield lrow
                            break
                elif how == "anti":
                    hit = False
                    for rrow in candidates:
                        combined = lrow + rrow
                        if extra is None or extra(combined) is True:
                            hit = True
                            break
                    if not hit:
                        yield lrow

        return self.children[0].execute().map_partitions(probe)

    def describe(self) -> str:
        return f"BroadcastHashJoin[{self.how}]"


class PrematerializedExec(PhysicalPlan):
    """Rows already computed by the adaptive planner, kept partitioned.

    Wraps the materialized partitions of a plan that was executed once
    to measure its true size, so the chosen join strategy re-reads the
    rows instead of recomputing the subtree.
    """

    PARTITIONING = "source"

    def __init__(
        self,
        ctx: EngineContext,
        partitions: list[list[tuple]],
        output: Sequence[Attribute],
    ):
        super().__init__(ctx, output)
        self._partitions = partitions

    def execute(self) -> RDD:
        return ParallelCollectionRDD.from_partitions(self.ctx, self._partitions)

    def describe(self) -> str:
        rows = sum(len(p) for p in self._partitions)
        return f"Prematerialized[{rows} rows, {len(self._partitions)} partitions]"


class AdaptiveJoinExec(PhysicalPlan):
    """Runtime join-strategy selection (Spark AQE's broadcast demotion,
    inverted): the right side is materialized first, its *exact* row
    count measured, and only then is the join strategy chosen.

    The planner inserts this when its row estimate was too coarse to
    commit to a broadcast statically. Materializing the right side is
    work either strategy needs anyway (build side of the hash table or
    shuffle input), so the extra cost is holding the rows, not
    recomputing them.
    """

    PARTITIONING = "driver"

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        left_keys: Sequence[Expression],
        right_keys: Sequence[Expression],
        how: str,
        extra_condition: Expression | None = None,
    ):
        output = _join_output(left, right, how)
        super().__init__(left.ctx, output)
        self.children = (left, right)
        self.how = how
        # Kept unbound: the chosen exec binds them against its children.
        self._left_keys = list(left_keys)
        self._right_keys = list(right_keys)
        self._extra = extra_condition
        self.decision: str | None = None

    def execute(self) -> RDD:
        left, right = self.children
        right_parts = self.ctx.run_job(right.execute(), list)
        right_rows = sum(len(p) for p in right_parts)
        materialized = PrematerializedExec(self.ctx, right_parts, right.output)
        if (
            right_rows <= self.ctx.config.broadcast_threshold
            and self.how in BroadcastHashJoinExec.SUPPORTED
        ):
            self.decision = f"broadcast({right_rows} rows)"
            self.ctx.scheduler.metrics.bump("runtime_broadcast_joins")
            chosen: PhysicalPlan = BroadcastHashJoinExec(
                left, materialized, self._left_keys, self._right_keys,
                self.how, self._extra,
            )
        else:
            self.decision = f"shuffle({right_rows} rows)"
            chosen = ShuffledHashJoinExec(
                left, materialized, self._left_keys, self._right_keys,
                self.how, self._extra,
            )
        return chosen.execute()

    def describe(self) -> str:
        decision = self.decision or "undecided"
        return f"AdaptiveJoin[{self.how}, decision={decision}]"


class CartesianProductExec(PhysicalPlan):
    """Nested-loop cross product (with optional residual condition)."""

    PARTITIONING = "driver"

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        condition: Expression | None = None,
        how: str = "cross",
    ):
        output = _join_output(left, right, "cross")
        super().__init__(left.ctx, output)
        self.children = (left, right)
        self.condition = (
            bind_expression(condition, list(left.output) + list(right.output))
            if condition is not None
            else None
        )

    def execute(self) -> RDD:
        right_rows = self.children[1].execute().collect()
        shared = self.ctx.broadcast(right_rows)
        condition = self.condition

        def cross(rows: Iterator[tuple]) -> Iterator[tuple]:
            for lrow in rows:
                for rrow in shared.value:
                    combined = lrow + rrow
                    if condition is None or condition.eval(combined) is True:
                        yield combined

        return self.children[0].execute().map_partitions(cross)


# ----------------------------------------------------------------------
# Bitmap index scans
# ----------------------------------------------------------------------


class _BitmapFetchRDD(RDD):
    """Fetch exactly the rows a bitmap selection names, per partition.

    ``selections[i]`` is partition *i*'s selected-row bitmap (bit *j* =
    the partition's *j*-th appended row); ``views[i]`` supplies the
    append-ordinal → packed-pointer array that resolves each set bit to
    its stored record. Bits are walked ascending, which *is* append
    order, so output order matches the scan-and-filter plan row for
    row. Reports the storage :class:`HashPartitioner` like the indexed
    scan does — partition count and numbering are unchanged.
    """

    def __init__(
        self,
        ctx: EngineContext,
        snapshots: Sequence[Any],
        selections: Sequence[int],
        views: Sequence[Any],
        columns: Sequence[int] | None = None,
    ):
        super().__init__(ctx, [])
        self.snapshots = list(snapshots)
        self.selections = list(selections)
        self.views = list(views)
        self.columns = list(columns) if columns is not None else None
        self.partitioner = HashPartitioner(len(self.snapshots))

    @property
    def num_partitions(self) -> int:
        return len(self.snapshots)

    def compute(self, split: int) -> Iterator[tuple]:
        # Chaos site: shared with the cTrie probe — either index kind
        # dies when the executor holding its partition does.
        self.context.fault_injector.maybe_fail("index.probe", split)
        bits = self.selections[split]
        if not bits:
            return iter(())
        snapshot = self.snapshots[split]
        pointers = self.views[split].pointers
        batches = snapshot.partition.batches
        codec = snapshot.partition.codec
        columns = self.columns

        def fetch() -> Iterator[tuple]:
            n = 0
            for position in iter_bits(bits):
                # A dense selection over a large partition walks millions
                # of bits without touching a chunk boundary; poll every
                # 1024 rows so a cancelled query stops fetching instead
                # of materialising the rest of the selection.
                if not (n & 1023):
                    check_cancelled()
                n += 1
                _prev, payload = batches.read(pointers[position])
                if columns is None:
                    yield codec.decode(payload)
                else:
                    yield tuple(
                        codec.decode_field(payload, 0, c) for c in columns
                    )

        return fetch()


class BitmapScanExec(PhysicalPlan):
    """Row fetch driven by one updatable bitmap-index predicate.

    The planner already evaluated the compiled bitmap program against
    each partition's snapshot views *at plan time* (big-int AND/OR over
    whole bitmaps), so this operator holds the exact per-partition
    selection and its popcount — ``execute`` only fetches. Snapshot
    visibility is baked into the selections: every bitmap was masked to
    the MVCC version's row count, so rows appended after the version
    was captured are invisible without any reader/writer blocking.
    """

    PARTITIONING = "source"
    #: EXPLAIN marker for the planner decision this operator embodies.
    MARKER = "bitmap_chosen"

    def __init__(
        self,
        ctx: EngineContext,
        version: Any,
        output: Sequence[Attribute],
        selections: Sequence[int],
        views: Sequence[Any],
        ordinals: Sequence[int],
        selected_rows: int,
        total_rows: int,
        columns: Sequence[int] | None = None,
    ):
        super().__init__(ctx, output)
        self.version = version
        self.selections = list(selections)
        self.views = list(views)
        self.ordinals = list(ordinals)
        self.selected_rows = selected_rows
        self.total_rows = total_rows
        self.columns = list(columns) if columns is not None else None

    def estimated_rows(self) -> int:
        """Exact, not an estimate: the selection popcount."""
        return self.selected_rows

    def execute(self) -> RDD:
        return _BitmapFetchRDD(
            self.ctx, self.version.snapshots, self.selections, self.views,
            self.columns,
        )

    def describe(self) -> str:
        cols = "all" if self.columns is None else self.columns
        return (
            f"{type(self).__name__}[version={self.version.version_id}, "
            f"columns={cols}, {self.MARKER}=True, ordinals={self.ordinals}, "
            f"selected={self.selected_rows}/{self.total_rows}]"
        )


class BitmapIndexAndExec(BitmapScanExec):
    """Multi-predicate bitmap combination (AND/OR intersection).

    Same fetch machinery as :class:`BitmapScanExec`; a distinct class
    (and EXPLAIN marker) because the planner costed a *combined*
    program — the case where bitmap indexes beat both the cTrie lookup
    and the zone-map-pruned scan on selective conjunctions.
    """

    MARKER = "bitmap_and"


def _join_output(left: PhysicalPlan, right: PhysicalPlan, how: str) -> list[Attribute]:
    left_out = list(left.output)
    right_out = list(right.output)
    if how in ("semi", "anti"):
        return left_out
    if how in ("left", "full"):
        right_out = [
            Attribute(a.name, a.dtype, a.expr_id, a.qualifier, True) for a in right_out
        ]
    if how in ("right", "full"):
        left_out = [
            Attribute(a.name, a.dtype, a.expr_id, a.qualifier, True) for a in left_out
        ]
    return left_out + right_out
