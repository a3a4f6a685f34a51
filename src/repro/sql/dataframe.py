"""The DataFrame API.

A DataFrame is an immutable handle on a logical plan plus the session
that can execute it. Transformations build new plans lazily; actions
run the full pipeline (analyze → optimize → plan → execute on RDDs),
where a repeated query shape skips analysis and the standard optimizer
batches through the session's plan cache.

``cache()`` materializes the result into a **columnar** in-memory
relation — exactly what Spark's DataFrame cache does, and the baseline
the Indexed DataFrame is measured against in Figure 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import AnalysisError
from repro.sql.column import Column
from repro.sql.expressions import (
    Alias,
    And,
    Attribute,
    EqualTo,
    Expression,
    SortOrder,
    UnresolvedAttribute,
    UnresolvedStar,
)
from repro.sql.logical import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Relation,
    Sort,
    SubqueryAlias,
    Union,
)
from repro.sql.relation import ColumnarRelation
from repro.sql.types import Row, StructType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.physical import PhysicalPlan
    from repro.sql.session import Session


def _to_expr(item: str | Column) -> Expression:
    if isinstance(item, Column):
        return item.expr
    if isinstance(item, str):
        if item == "*":
            return UnresolvedStar()
        if item.endswith(".*"):
            return UnresolvedStar(item[:-2])
        if "." in item:
            qualifier, _, name = item.partition(".")
            return UnresolvedAttribute(name, qualifier)
        return UnresolvedAttribute(item)
    raise TypeError(f"expected column name or Column, got {item!r}")


class DataFrame:
    """A lazily evaluated, schema-carrying relational dataset."""

    def __init__(self, session: "Session", plan: LogicalPlan):
        self.session = session
        self.plan = plan
        self._analyzed: LogicalPlan | None = None
        self._cached_relation: ColumnarRelation | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def analyzed_plan(self) -> LogicalPlan:
        if self._analyzed is None:
            resolved = self.session.resolve_tables(self.plan)
            self._analyzed = self.session.analyzer.analyze(resolved)
        return self._analyzed

    @property
    def schema(self) -> StructType:
        return self.analyzed_plan().schema

    @property
    def columns(self) -> list[str]:
        return self.schema.names

    def col(self, name: str) -> Column:
        """A column bound to *this* DataFrame's output (disambiguates
        self-joins, like ``df["name"]`` in Spark)."""
        for attr in self.analyzed_plan().output():
            if attr.name == name:
                return Column(attr)
        raise AnalysisError(f"no column {name!r} in {self.columns}")

    def __getitem__(self, name: str) -> Column:
        return self.col(name)

    def explain(self, cost: bool = False) -> str:
        """Logical, optimized, and physical plans as text.

        With ``cost=True`` each optimized node is annotated with the
        planner's row estimate (the numbers broadcast decisions use).
        """
        analyzed = self.analyzed_plan()
        optimized = self.session.optimize_plan(self)
        physical = self.session.planner.plan(optimized)
        if cost:
            from repro.sql.planner import estimate_rows

            def annotate(plan: LogicalPlan, indent: int = 0) -> str:
                estimate = estimate_rows(plan)
                shown = "?" if estimate is None else str(estimate)
                line = "  " * indent + f"{plan.describe()}  [rows≈{shown}]"
                return "\n".join(
                    [line] + [annotate(c, indent + 1) for c in plan.children]
                )

            optimized_text = annotate(optimized)
        else:
            optimized_text = optimized.pretty()
        return (
            f"== Analyzed ==\n{analyzed.pretty()}\n"
            f"== Optimized ==\n{optimized_text}\n"
            f"== Physical ==\n{physical.pretty()}"
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def _with_plan(self, plan: LogicalPlan) -> "DataFrame":
        return DataFrame(self.session, plan)

    def select(self, *cols: str | Column) -> "DataFrame":
        if not cols:
            cols = ("*",)
        return self._with_plan(Project([_to_expr(c) for c in cols], self.plan))

    def filter(self, condition: Column | str) -> "DataFrame":
        if isinstance(condition, str):
            condition_expr = self.session.parse_expression(condition)
        else:
            condition_expr = condition.expr
        return self._with_plan(Filter(condition_expr, self.plan))

    where = filter

    def join(
        self,
        other: "DataFrame",
        on: Column | str | Sequence[str] | None = None,
        how: str = "inner",
    ) -> "DataFrame":
        """Join with another DataFrame.

        ``on`` may be a Column condition, a column name, or a list of
        names present on both sides.
        """
        if isinstance(on, Column):
            condition = on.expr
        elif on is None:
            condition = None
            how = "cross" if how == "inner" else how
        else:
            names = [on] if isinstance(on, str) else list(on)
            condition = None
            for name in names:
                left = self.col(name).expr
                right = other.col(name).expr
                eq = EqualTo(left, right)
                condition = eq if condition is None else And(condition, eq)
        return self._with_plan(Join(self.plan, other.plan, how, condition))

    def group_by(self, *cols: str | Column) -> "GroupedData":
        return GroupedData(self, [_to_expr(c) for c in cols])

    groupBy = group_by

    def agg(self, *cols: Column) -> "DataFrame":
        """Global aggregation without grouping."""
        return GroupedData(self, []).agg(*cols)

    def order_by(self, *cols: str | Column) -> "DataFrame":
        orders = []
        for item in cols:
            expr = _to_expr(item)
            if not isinstance(expr, SortOrder):
                expr = SortOrder(expr, ascending=True)
            orders.append(expr)
        return self._with_plan(Sort(orders, self.plan))

    sort = order_by

    def limit(self, n: int) -> "DataFrame":
        return self._with_plan(Limit(n, self.plan))

    def union(self, other: "DataFrame") -> "DataFrame":
        return self._with_plan(Union(self.plan, other.plan))

    def distinct(self) -> "DataFrame":
        return self._with_plan(Distinct(self.plan))

    def with_column(self, name: str, column: Column) -> "DataFrame":
        exprs: list[Expression] = []
        replaced = False
        for attr in self.analyzed_plan().output():
            if attr.name == name:
                exprs.append(Alias(column.expr, name))
                replaced = True
            else:
                exprs.append(attr)
        if not replaced:
            exprs.append(Alias(column.expr, name))
        return self._with_plan(Project(exprs, self.plan))

    def with_column_renamed(self, old: str, new: str) -> "DataFrame":
        exprs: list[Expression] = []
        for attr in self.analyzed_plan().output():
            exprs.append(Alias(attr, new) if attr.name == old else attr)
        return self._with_plan(Project(exprs, self.plan))

    def drop(self, *names: str) -> "DataFrame":
        doomed = set(names)
        keep = [a for a in self.analyzed_plan().output() if a.name not in doomed]
        return self._with_plan(Project(list(keep), self.plan))

    def alias(self, name: str) -> "DataFrame":
        return self._with_plan(SubqueryAlias(name, self.plan))

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def _physical(self) -> "PhysicalPlan":
        physical = self.session.planner.plan(self.session.optimize_plan(self))
        # Retained so runtime-adaptive markers (join decisions, pruning
        # counters) are inspectable after the action completes.
        self._last_physical = physical
        return physical

    def _execute(self):
        return self._physical().execute()

    def last_execution_plan(self) -> str | None:
        """The physical plan of the most recent action, including
        markers only known at runtime (e.g. ``AdaptiveJoin`` decisions);
        ``None`` before the first action."""
        physical = getattr(self, "_last_physical", None)
        return None if physical is None else physical.pretty()

    def collect(self) -> list[Row]:
        # The schema comes from the executed plan, not from analysis: a
        # plan-cache hit analyzes nothing.
        physical = self._physical()
        schema = physical.schema
        return [Row(t, schema) for t in physical.execute().collect()]

    def collect_tuples(self) -> list[tuple]:
        """Collect raw tuples (cheaper than Row wrapping; used by
        benchmarks and internal machinery)."""
        return self._execute().collect()

    def count(self) -> int:
        return self._execute().count()

    def take(self, n: int) -> list[Row]:
        physical = self._physical()
        schema = physical.schema
        return [Row(t, schema) for t in physical.execute().take(n)]

    def first(self) -> Row | None:
        rows = self.take(1)
        return rows[0] if rows else None

    def show(self, n: int = 20) -> None:
        """Print up to ``n`` rows as an ASCII table."""
        rows = self.take(n)
        names = self.columns
        widths = [len(c) for c in names]
        cells = []
        for row in rows:
            rendered = ["NULL" if v is None else str(v) for v in row]
            cells.append(rendered)
            widths = [max(w, len(s)) for w, s in zip(widths, rendered)]
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        print(sep)
        print("|" + "|".join(f" {c:<{w}} " for c, w in zip(names, widths)) + "|")
        print(sep)
        for rendered in cells:
            print("|" + "|".join(f" {s:<{w}} " for s, w in zip(rendered, widths)) + "|")
        print(sep)

    # ------------------------------------------------------------------
    # Caching
    # ------------------------------------------------------------------

    def cache(self) -> "DataFrame":
        """Materialize into a columnar in-memory relation.

        Returns a DataFrame scanning the cached data; the output
        attributes keep their ids, so existing references remain valid.
        Any append-style update requires re-caching from scratch — the
        vanilla-Spark weakness the Indexed DataFrame removes.
        """
        analyzed = self.analyzed_plan()
        rdd = self._execute()
        partitions = rdd.context.run_job(rdd, lambda it: list(it))
        relation = ColumnarRelation.from_row_partitions(analyzed.schema, partitions)
        cached = DataFrame(
            self.session, Relation(relation, attributes=analyzed.output())
        )
        cached._cached_relation = relation
        return cached

    @property
    def is_cached(self) -> bool:
        return self._cached_relation is not None

    def cached_bytes(self) -> int:
        if self._cached_relation is None:
            return 0
        return self._cached_relation.memory_bytes()

    # ------------------------------------------------------------------

    def create_or_replace_temp_view(self, name: str) -> None:
        self.session.catalog.register(name, self.plan)

    def __repr__(self) -> str:
        try:
            cols = ", ".join(
                f"{f.name}: {f.dtype.name}" for f in self.schema
            )
        except AnalysisError:
            cols = "<unresolved>"
        return f"DataFrame[{cols}]"


class GroupedData:
    """Result of ``DataFrame.group_by``: terminal aggregation methods."""

    def __init__(self, df: DataFrame, grouping: list[Expression]):
        self._df = df
        self._grouping = grouping

    def agg(self, *cols: Column) -> DataFrame:
        if not cols:
            raise AnalysisError("agg() requires at least one aggregate column")
        aggregate_list: list[Expression] = list(self._grouping)
        aggregate_list.extend(c.expr for c in cols)
        return self._df._with_plan(
            Aggregate(self._grouping, aggregate_list, self._df.plan)
        )

    def count(self) -> DataFrame:
        from repro.sql.functions import count as count_fn

        return self.agg(count_fn().alias("count"))

    def sum(self, column: str) -> DataFrame:
        from repro.sql.functions import sum_

        return self.agg(sum_(column).alias(f"sum({column})"))

    def avg(self, column: str) -> DataFrame:
        from repro.sql.functions import avg

        return self.agg(avg(column).alias(f"avg({column})"))

    def min(self, column: str) -> DataFrame:
        from repro.sql.functions import min_

        return self.agg(min_(column).alias(f"min({column})"))

    def max(self, column: str) -> DataFrame:
        from repro.sql.functions import max_

        return self.agg(max_(column).alias(f"max({column})"))
