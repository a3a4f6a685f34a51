"""Physical planning: strategies mapping logical to physical plans.

A *strategy* is a callable ``(logical_plan, planner) -> PhysicalPlan |
None``. The planner tries strategies in order, extension strategies
first — the exact mechanism (modelled on Spark's ``extraStrategies``)
the Indexed DataFrame uses to inject its operators without touching
this module (paper §2: *"without modifying the Spark source code"*).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import FAIL_STOP, PlanningError
from repro.sql.expressions import (
    Attribute,
    EqualTo,
    Expression,
    combine_conjuncts,
    split_conjuncts,
)
from repro.sql.logical import (
    Aggregate,
    ScannableLeaf,
    Distinct,
    Filter,
    Join,
    Limit,
    LocalRelation,
    LogicalPlan,
    Project,
    Relation,
    Sort,
    SubqueryAlias,
    Union,
)
from repro.sql.physical import (
    AdaptiveJoinExec,
    BroadcastHashJoinExec,
    CartesianProductExec,
    DistinctExec,
    FilterExec,
    HashAggregateExec,
    LimitExec,
    LocalDataExec,
    PhysicalPlan,
    ProjectExec,
    ScanExec,
    ShuffledHashJoinExec,
    SortExec,
    TakeOrderedExec,
    UnionExec,
)

Strategy = Callable[[LogicalPlan, "Planner"], Optional[PhysicalPlan]]

#: Fallback selectivity guesses for row estimation.
_FILTER_SELECTIVITY = 0.25


def estimate_rows(plan: LogicalPlan) -> int | None:
    """Best-effort cardinality estimate used for broadcast decisions."""
    if isinstance(plan, Relation):
        return plan.relation.num_rows()
    if isinstance(plan, LocalRelation):
        return len(plan.rows)
    if isinstance(plan, Filter):
        below = estimate_rows(plan.child)
        return None if below is None else max(1, int(below * _FILTER_SELECTIVITY))
    if isinstance(plan, Limit):
        below = estimate_rows(plan.child)
        return plan.n if below is None else min(plan.n, below)
    if isinstance(plan, (Project, Sort, SubqueryAlias)):
        return estimate_rows(plan.children[0])
    if isinstance(plan, (Distinct, Aggregate)):
        below = estimate_rows(plan.children[0])
        return None if below is None else max(1, below // 2)
    if isinstance(plan, Union):
        left = estimate_rows(plan.left)
        right = estimate_rows(plan.right)
        if left is None or right is None:
            return None
        return left + right
    # Indexed relations and joins: let callers handle specially.
    for attr in ("estimated_rows",):
        method = getattr(plan, attr, None)
        if callable(method):
            return method()
    return None


def extract_equi_join_keys(
    join: Join,
) -> tuple[list[Expression], list[Expression], Expression | None] | None:
    """Split a join condition into equi-key pairs plus a residual.

    Returns ``(left_keys, right_keys, extra)`` or None when no equi
    pair exists.
    """
    if join.condition is None:
        return None
    left_ids = {a.expr_id for a in join.left.output()}
    right_ids = {a.expr_id for a in join.right.output()}
    left_keys: list[Expression] = []
    right_keys: list[Expression] = []
    residual: list[Expression] = []
    for conjunct in split_conjuncts(join.condition):
        if isinstance(conjunct, EqualTo):
            lrefs = {a.expr_id for a in conjunct.left.references}
            rrefs = {a.expr_id for a in conjunct.right.references}
            if lrefs and rrefs:
                if lrefs <= left_ids and rrefs <= right_ids:
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right)
                    continue
                if lrefs <= right_ids and rrefs <= left_ids:
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left)
                    continue
        residual.append(conjunct)
    if not left_keys:
        return None
    return left_keys, right_keys, combine_conjuncts(residual)


class Planner:
    """Turns optimized logical plans into physical plans.

    Extension strategies are *advisory*: one that raises is skipped
    (counted in :attr:`strategy_failures`) and planning degrades to the
    next strategy, ultimately the built-in :func:`basic_strategy` — a
    buggy injected strategy can cost the indexed fast path but never a
    query. Failures of the final strategy propagate: with nothing left
    to fall back to, swallowing them would only obscure the error.
    """

    def __init__(self, session: "object", extra_strategies: Sequence[Strategy] | None = None):
        self.session = session
        self.strategies: list[Strategy] = list(extra_strategies or [])
        self.strategies.append(basic_strategy)
        self.strategy_failures = 0
        self.last_strategy_error: BaseException | None = None

    @property
    def ctx(self):  # noqa: ANN201 - EngineContext, avoids circular import
        return self.session.ctx  # type: ignore[attr-defined]

    @property
    def config(self):  # noqa: ANN201
        return self.session.config  # type: ignore[attr-defined]

    def plan(self, logical: LogicalPlan) -> PhysicalPlan:
        last = len(self.strategies) - 1
        for position, strategy in enumerate(self.strategies):
            try:
                physical = strategy(logical, self)
            except FAIL_STOP:
                # Cancellation / sanitizer / recovery failures are
                # not a strategy miss; trying the next strategy
                # would mask them.
                raise
            except Exception as exc:
                if position == last:
                    raise
                self.strategy_failures += 1
                self.last_strategy_error = exc
                continue
            if physical is not None:
                return physical
        raise PlanningError(f"no strategy produced a plan for:\n{logical.pretty()}")


def _apply_pruning(child_exec: PhysicalPlan, condition: Expression) -> None:
    """Give a scan sitting under a filter the chance to zone-prune.

    Duck-typed (any exec exposing ``apply_pruning``) so the indexed scan
    in :mod:`repro.core.physical` participates without this module
    importing it — the same inversion the strategy mechanism uses.
    """
    apply = getattr(child_exec, "apply_pruning", None)
    if apply is not None:
        apply(condition)


def _plan_join(join: Join, planner: Planner) -> PhysicalPlan:
    left = planner.plan(join.left)
    right = planner.plan(join.right)

    keys = extract_equi_join_keys(join)
    if keys is None:
        if join.how in ("cross", "inner"):
            return CartesianProductExec(left, right, join.condition)
        raise PlanningError(
            f"{join.how} join without equi-keys is not supported: {join.condition!r}"
        )
    left_keys, right_keys, extra = keys

    threshold = planner.config.broadcast_threshold
    right_rows = estimate_rows(join.right)
    can_broadcast = (
        right_rows is not None
        and right_rows <= threshold
        and join.how in BroadcastHashJoinExec.SUPPORTED
    )
    if can_broadcast:
        return BroadcastHashJoinExec(
            left, right, left_keys, right_keys, join.how, extra
        )
    # The static estimate said "too big to broadcast" (or gave nothing):
    # defer the call until the right side's exact size is known at
    # runtime (Spark AQE's join replanning).
    if join.how in BroadcastHashJoinExec.SUPPORTED:
        return AdaptiveJoinExec(left, right, left_keys, right_keys, join.how, extra)
    return ShuffledHashJoinExec(left, right, left_keys, right_keys, join.how, extra)


def basic_strategy(plan: LogicalPlan, planner: Planner) -> PhysicalPlan | None:
    """The default lowering for every logical node."""
    if isinstance(plan, Relation):
        return ScanExec(planner.ctx, plan.relation, plan.output())
    if isinstance(plan, LocalRelation):
        return LocalDataExec(planner.ctx, plan.rows, plan.output())
    if isinstance(plan, Project):
        # Attribute-only projection directly over a scan → pruned scan.
        if isinstance(plan.child, Relation) and all(
            isinstance(e, Attribute) for e in plan.project_list
        ):
            child_out = plan.child.output()
            positions = {a.expr_id: i for i, a in enumerate(child_out)}
            columns = [positions[e.expr_id] for e in plan.project_list]  # type: ignore[union-attr]
            return ScanExec(
                planner.ctx, plan.child.relation, plan.output(), columns
            )
        # Project over Filter → one fused compiled filter+project
        # kernel (whole-stage-codegen fusion). Only taken when codegen
        # is on so the interpreted A/B plans keep the two-operator
        # shape; indexed strategies run before this one and are
        # unaffected.
        if isinstance(plan.child, Filter) and planner.config.codegen_enabled:
            child_exec = planner.plan(plan.child.child)
            _apply_pruning(child_exec, plan.child.condition)
            return ProjectExec(
                plan.project_list,
                child_exec,
                fused_filter=plan.child.condition,
            )
        return ProjectExec(plan.project_list, planner.plan(plan.child))
    if isinstance(plan, Filter):
        child_exec = planner.plan(plan.child)
        _apply_pruning(child_exec, plan.condition)
        return FilterExec(plan.condition, child_exec)
    if isinstance(plan, Join):
        return _plan_join(plan, planner)
    if isinstance(plan, Aggregate):
        return HashAggregateExec(
            plan.grouping, plan.aggregate_list, planner.plan(plan.child)
        )
    if isinstance(plan, Sort):
        return SortExec(plan.orders, planner.plan(plan.child))
    if isinstance(plan, Limit):
        # LIMIT over ORDER BY fuses into a Top-K heap select.
        if isinstance(plan.child, Sort):
            sort = plan.child
            return TakeOrderedExec(plan.n, sort.orders, planner.plan(sort.child))
        return LimitExec(plan.n, planner.plan(plan.child))
    if isinstance(plan, Distinct):
        return DistinctExec(planner.plan(plan.child))
    if isinstance(plan, Union):
        return UnionExec(planner.plan(plan.left), planner.plan(plan.right))
    if isinstance(plan, SubqueryAlias):
        return planner.plan(plan.child)
    if isinstance(plan, ScannableLeaf):
        return plan.scan_exec(planner.ctx)
    return None
