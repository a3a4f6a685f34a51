"""Catalyst integration: index-aware optimizer rule and planner strategy.

Paper §2, *Integration with Catalyst*: the library adds optimization
rules so that regular SQL / DataFrame queries become index-aware —
equality filters on the indexed column turn into cTrie lookups,
equi-joins against an indexed relation turn into indexed joins with
the index as the pre-built build side, and everything else falls back
to vanilla execution on top of the row-batch scan.

:func:`enable_indexing` performs the whole injection on a session —
the Python analogue of importing the library's Scala implicits.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.indexed_df import create_index
from repro.core.physical import (
    GuardedIndexExec,
    IndexedJoinExec,
    IndexedScanExec,
    IndexLookupExec,
)
from repro.core.relation import IndexedRelation
from repro.index.bitmap import (
    compile_bitmap_program,
    evaluate_program,
    program_ordinals,
)
from repro.index.registry import bitmap_registry
from repro.sql.expressions import (
    Attribute,
    EqualTo,
    Expression,
    In,
    Literal,
    combine_conjuncts,
    split_conjuncts,
    strip_alias,
)
from repro.sql.logical import Filter, Join, LogicalPlan, Project
from repro.sql.physical import (
    BitmapIndexAndExec,
    BitmapScanExec,
    FilterExec,
    PhysicalPlan,
    ProjectExec,
)
from repro.sql.planner import Planner, estimate_rows, extract_equi_join_keys
from repro.stats import extract_pruning_predicates

#: Cost-model weight of one bitmap row fetch (pointer resolution plus a
#: single-row decode) relative to one sequentially scanned row. The
#: bitmap plan wins when ``selected_rows * _BITMAP_FETCH_COST`` beats
#: the rival's row count (zone-map-pruned scan estimate, or the cTrie
#: lookup's chain estimate).
_BITMAP_FETCH_COST = 4


class IndexLookup(LogicalPlan):
    """Logical point lookup: ``key IN literals`` on the indexed column.

    Produced by :func:`index_lookup_rewrite`; lowered to
    :class:`~repro.core.physical.IndexLookupExec` by the strategy.
    """

    def __init__(self, relation: IndexedRelation, keys: Sequence[object]):
        self.relation = relation
        self.keys = list(keys)

    def output(self) -> list[Attribute]:
        return self.relation.output()

    def estimated_rows(self) -> int:
        """Keys × average chain length (rows per distinct key)."""
        total = self.relation.version.row_count()
        distinct = sum(
            snapshot.distinct_keys for snapshot in self.relation.version.snapshots
        )
        average_chain = max(1, total // max(1, distinct))
        return len(self.keys) * average_chain

    def with_new_children(self, children: Sequence[LogicalPlan]) -> "IndexLookup":
        return self

    def describe(self) -> str:
        return f"IndexLookup[{self.relation.key_attribute!r} IN {self.keys!r}]"


# ----------------------------------------------------------------------
# Logical rule
# ----------------------------------------------------------------------


def _literal_keys(conjunct: Expression, key: Attribute) -> list[object] | None:
    """Keys if ``conjunct`` is an equality/IN on the indexed column."""
    if isinstance(conjunct, EqualTo):
        left, right = conjunct.left, conjunct.right
        if isinstance(left, Attribute) and left.expr_id == key.expr_id and isinstance(
            right, Literal
        ):
            return [right.value]
        if isinstance(right, Attribute) and right.expr_id == key.expr_id and isinstance(
            left, Literal
        ):
            return [left.value]
    if isinstance(conjunct, In):
        if (
            isinstance(conjunct.value, Attribute)
            and conjunct.value.expr_id == key.expr_id
            and all(isinstance(o, Literal) for o in conjunct.options)
        ):
            return [o.value for o in conjunct.options]  # type: ignore[union-attr]
    return None


def index_lookup_rewrite(plan: LogicalPlan) -> LogicalPlan:
    """Rewrite ``Filter(key = lit, IndexedRelation)`` into a logical
    :class:`IndexLookup` (plus a residual filter if needed)."""

    def rewrite(node: LogicalPlan) -> LogicalPlan:
        if not (isinstance(node, Filter) and isinstance(node.child, IndexedRelation)):
            return node
        relation = node.child
        key = relation.key_attribute
        keys: list[object] | None = None
        residual: list[Expression] = []
        for conjunct in split_conjuncts(node.condition):
            found = _literal_keys(conjunct, key) if keys is None else None
            if found is not None:
                keys = found
            else:
                residual.append(conjunct)
        if keys is None:
            return node
        lookup: LogicalPlan = IndexLookup(relation, [k for k in keys if k is not None])
        rest = combine_conjuncts(residual)
        return Filter(rest, lookup) if rest is not None else lookup

    return plan.transform_up(rewrite)


# ----------------------------------------------------------------------
# Planner strategy
# ----------------------------------------------------------------------


def _unwrap_indexed(
    plan: LogicalPlan,
) -> tuple[IndexedRelation, list[int] | None] | None:
    """Recognize an IndexedRelation, possibly under a column-pruning
    Project; returns (relation, selected ordinals or None)."""
    if isinstance(plan, IndexedRelation):
        return plan, None
    if isinstance(plan, Project) and isinstance(plan.child, IndexedRelation):
        relation = plan.child
        positions = {a.expr_id: i for i, a in enumerate(relation.output())}
        columns: list[int] = []
        for expr in plan.project_list:
            if not isinstance(expr, Attribute) or expr.expr_id not in positions:
                return None
            columns.append(positions[expr.expr_id])
        return relation, columns
    return None


def _plan_indexed_join(join: Join, planner: Planner) -> PhysicalPlan | None:
    if join.how != "inner":
        return None
    keys = extract_equi_join_keys(join)
    if keys is None:
        return None
    left_keys, right_keys, extra = keys

    for build_on_left in (True, False):
        side = join.left if build_on_left else join.right
        probe_side = join.right if build_on_left else join.left
        unwrapped = _unwrap_indexed(side)
        if unwrapped is None:
            continue
        relation, build_columns = unwrapped
        key_attr = relation.key_attribute
        own_keys = left_keys if build_on_left else right_keys
        other_keys = right_keys if build_on_left else left_keys

        probe_key: Expression | None = None
        residual_pairs: list[Expression] = []
        for own, other in zip(own_keys, other_keys):
            stripped = strip_alias(own)
            if (
                probe_key is None
                and isinstance(stripped, Attribute)
                and stripped.expr_id == key_attr.expr_id
            ):
                probe_key = other
            else:
                residual_pairs.append(EqualTo(own, other))
        if probe_key is None:
            continue

        conditions = list(residual_pairs)
        if extra is not None:
            conditions.append(extra)
        extra_condition = combine_conjuncts(conditions)

        probe_plan = planner.plan(probe_side)
        build_output = side.output()
        return IndexedJoinExec(
            planner.ctx,
            relation.version,
            build_output,
            probe_plan,
            probe_key,
            build_on_left,
            extra_condition,
            broadcast_threshold=planner.config.broadcast_threshold,
            probe_rows_estimate=estimate_rows(probe_side),
            build_columns=build_columns,
        )
    return None


def _vanilla_planner(planner: Planner) -> Planner:
    """A planner with no extension strategies — the transformToRowRDD
    path of Figure 1, guaranteed free of indexed operators."""
    return Planner(planner.session)


def _guard(
    primary: PhysicalPlan,
    planner: Planner,
    fallback_logical: LogicalPlan,
    label: str,
) -> PhysicalPlan:
    """Wrap an indexed operator for graceful degradation, if enabled."""
    if not planner.config.index_fallback:
        return primary

    def build_fallback() -> PhysicalPlan:
        return _vanilla_planner(planner).plan(fallback_logical)

    return GuardedIndexExec(primary, build_fallback, label)


# ----------------------------------------------------------------------
# Bitmap-index planning (cost-based choice against scan and lookup)
# ----------------------------------------------------------------------


def _bitmap_candidate(
    condition: Expression, relation: IndexedRelation
) -> dict | None:
    """Compile and evaluate a bitmap program for ``condition``.

    Returns ``None`` when no bitmap plan is *possible* here — no
    snapshot carries bitmap views, no conjunct compiles, or some
    partition cannot evaluate the program soundly (a missing view or a
    value/literal type mismatch; a partial bitmap answer would be
    wrong, so the whole plan is abandoned). Otherwise returns the exact
    per-partition selections plus everything the cost model and the
    exec need. Evaluation happens at plan time: big-int AND/OR over
    whole bitmaps is cheap, and the resulting popcount is an *exact*
    cost signal, not an estimate.
    """
    snapshots = relation.version.snapshots
    if not snapshots:
        return None
    per_part = [s.bitmaps or {} for s in snapshots]
    indexed = frozenset().union(*(views.keys() for views in per_part))
    if not indexed:
        return None
    attrs = relation.output()
    program, covered, residual = compile_bitmap_program(condition, attrs, indexed)
    if program is None:
        return None
    selections: list[int] = []
    selected = 0
    for views in per_part:
        bits = evaluate_program(program, views)
        if bits is None:
            return None
        selections.append(bits)
        selected += bits.bit_count()
    ordinals = sorted(program_ordinals(program))
    return {
        "program": program,
        "selections": selections,
        # One view per partition for pointer resolution; any program
        # ordinal works (the pointer array is per partition, not per
        # column), and evaluation just proved every partition has it.
        "views": [views[ordinals[0]] for views in per_part],
        "ordinals": ordinals,
        "selected": selected,
        "total": relation.version.row_count(),
        "residual": combine_conjuncts(residual),
    }


def _scan_rival_rows(condition: Expression, relation: IndexedRelation) -> int:
    """Rows the zone-map-pruned scan would decode for ``condition``.

    Computed against the snapshot zone maps directly — *without*
    calling ``apply_pruning`` on any exec — so costing a scan that is
    never taken records nothing in the pruning metrics.
    """
    predicates = extract_pruning_predicates(condition, relation.output())
    if not predicates:
        return relation.version.row_count()
    return sum(len(s) for s in relation.version.snapshots if s.may_match(predicates))


def _bitmap_choice(
    condition: Expression,
    relation: IndexedRelation,
    planner: Planner,
    rival_rows: int,
) -> tuple[str, PhysicalPlan | str] | None:
    """Cost the bitmap plan for ``condition`` against ``rival_rows``.

    ``None`` — no bitmap candidate exists (stay silent; the vanilla
    strategy plans the scan).
    ``("chosen", exec)`` — the bitmap plan won; ``exec`` is the fetch
    operator with any residual filter already applied above it.
    ``("rejected", reason)`` — a candidate existed but lost; the caller
    must surface the decision (EXPLAIN marker + metrics counter).
    """
    candidate = _bitmap_candidate(condition, relation)
    if candidate is None:
        return None
    cost = candidate["selected"] * _BITMAP_FETCH_COST
    if cost >= rival_rows:
        return ("rejected", f"cost={cost}>=rival={rival_rows}")
    exec_cls = (
        BitmapScanExec if candidate["program"][0] == "pred" else BitmapIndexAndExec
    )
    primary: PhysicalPlan = exec_cls(
        planner.ctx,
        relation.version,
        relation.output(),
        candidate["selections"],
        candidate["views"],
        candidate["ordinals"],
        candidate["selected"],
        candidate["total"],
    )
    if candidate["residual"] is not None:
        primary = FilterExec(candidate["residual"], primary)
    bitmap_registry().record_hit()
    return ("chosen", primary)


def _plan_bitmap_vs_scan(
    plan: LogicalPlan,
    condition: Expression,
    relation: IndexedRelation,
    planner: Planner,
    project_list: "Sequence[Expression] | None" = None,
) -> PhysicalPlan | None:
    """Plan ``Filter(relation)`` (optionally under a Project) with the
    bitmap-vs-pruned-scan cost comparison.

    Returns ``None`` when no bitmap index applies — the vanilla
    strategy then plans the pruned scan. On rejection the vanilla plan
    is replicated here so the losing decision can be surfaced: the scan
    still zone-prunes (recording the usual pruning counters), carries an
    ``index_rejected`` EXPLAIN marker, and the rejection is counted in
    the pruning metrics.
    """
    rival = _scan_rival_rows(condition, relation)
    choice = _bitmap_choice(condition, relation, planner, rival)
    if choice is None:
        return None
    if choice[0] == "chosen":
        guarded = _guard(choice[1], planner, plan, "bitmap")
        if project_list is not None:
            return ProjectExec(project_list, guarded)
        return guarded
    reason = choice[1]
    scan = IndexedScanExec(planner.ctx, relation.version, relation.output())
    scan.apply_pruning(condition)
    scan.mark_index_rejected(reason)
    planner.ctx.pruning_metrics.record_index_rejected()
    if project_list is not None:
        # Replicate the fused filter+project the basic strategy builds
        # (this path is only taken when codegen fusion would apply).
        return ProjectExec(project_list, scan, fused_filter=condition)
    return FilterExec(condition, scan)


def indexed_strategy(plan: LogicalPlan, planner: Planner) -> PhysicalPlan | None:
    """Lower indexed logical nodes; return None to fall back to the
    vanilla strategy (paper Figure 1's dual execution paths).

    When ``Config.index_fallback`` is on, lookup and join operators are
    wrapped in :class:`GuardedIndexExec` so a *runtime* index failure
    degrades to the equivalent vanilla plan instead of failing the
    query."""
    if isinstance(plan, IndexLookup):
        lookup_exec: PhysicalPlan = IndexLookupExec(
            planner.ctx, plan.relation.version, plan.keys, plan.output()
        )
        if not plan.keys:
            return lookup_exec
        equivalent = Filter(
            In(plan.relation.key_attribute, [Literal(k) for k in plan.keys]),
            plan.relation,
        )
        return _guard(lookup_exec, planner, equivalent, "lookup")
    if isinstance(plan, Filter) and isinstance(plan.child, IndexLookup):
        lookup = plan.child
        relation = lookup.relation
        # Bitmap vs cTrie: reconstruct the full pre-rewrite condition
        # (key-IN plus residual) and cost a bitmap plan for it against
        # the cheaper of the pruned scan and the chain-walk lookup.
        full_condition = combine_conjuncts(
            [In(relation.key_attribute, [Literal(k) for k in lookup.keys])]
            + split_conjuncts(plan.condition)
        )
        assert full_condition is not None
        rival = min(
            _scan_rival_rows(full_condition, relation),
            max(1, lookup.estimated_rows()),
        )
        choice = _bitmap_choice(full_condition, relation, planner, rival)
        if choice is not None and choice[0] == "chosen":
            equivalent = Filter(full_condition, relation)
            return _guard(choice[1], planner, equivalent, "bitmap")
        child = indexed_strategy(lookup, planner)
        assert child is not None
        if choice is not None:
            target = child.children[0] if isinstance(child, GuardedIndexExec) else child
            if isinstance(target, IndexLookupExec):
                target.mark_index_rejected(choice[1])
            planner.ctx.pruning_metrics.record_index_rejected()
        return FilterExec(plan.condition, child)
    if isinstance(plan, Filter) and isinstance(plan.child, IndexedRelation):
        # Bitmap vs zone-map-pruned scan. None → the vanilla strategy
        # plans Filter(IndexedScan).
        return _plan_bitmap_vs_scan(plan, plan.condition, plan.child, planner)
    if isinstance(plan, IndexedRelation):
        return IndexedScanExec(planner.ctx, plan.version, plan.output())
    if isinstance(plan, Project):
        unwrapped = _unwrap_indexed(plan)
        if unwrapped is not None:
            relation, columns = unwrapped
            return IndexedScanExec(planner.ctx, relation.version, plan.output(), columns)
        if (
            planner.config.codegen_enabled
            and isinstance(plan.child, Filter)
            and isinstance(plan.child.child, IndexedRelation)
        ):
            # With codegen on the basic strategy fuses Project(Filter)
            # into one kernel, planning the grandchild directly — which
            # would bypass the bitmap comparison. Run it here; with
            # codegen off, returning None lets the recursion reach the
            # Filter(IndexedRelation) case above instead.
            return _plan_bitmap_vs_scan(
                plan.child,
                plan.child.condition,
                plan.child.child,
                planner,
                project_list=plan.project_list,
            )
        return None
    if isinstance(plan, Join):
        join_exec = _plan_indexed_join(plan, planner)
        if join_exec is None:
            return None
        return _guard(join_exec, planner, plan, "join")
    return None


# ----------------------------------------------------------------------
# Session wiring
# ----------------------------------------------------------------------


def enable_indexing(session: "object") -> None:
    """Inject the indexed rule + strategy into a session and add the
    ``DataFrame.create_index`` method (the implicit-conversion analogue
    of Listing 1's ``regularDF.createIndex``)."""
    from repro.sql.dataframe import DataFrame
    from repro.sql.session import Session

    assert isinstance(session, Session)
    if index_lookup_rewrite not in session.extensions.optimizer_rules:
        session.extensions.inject_optimizer_rule(index_lookup_rewrite)
    if indexed_strategy not in session.extensions.planner_strategies:
        session.extensions.inject_planner_strategy(indexed_strategy)
    session._rebuild_pipeline()

    if not hasattr(DataFrame, "create_index"):
        def _create_index(
            self: DataFrame,
            column: str | int,
            num_partitions: int | None = None,
            kind: str = "ctrie",
        ):
            return create_index(self, column, num_partitions, kind=kind)

        DataFrame.create_index = _create_index  # type: ignore[attr-defined]
