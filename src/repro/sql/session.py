"""Session: the SparkSession analogue and the library extension point.

A session owns the engine context, analyzer, optimizer, planner, and a
catalog of temp views. Extensions — such as the Indexed DataFrame's
optimizer rule and planner strategy — register through
:class:`SessionExtensions` *before or after* session creation, exactly
mirroring how the paper's library injects itself into stock Spark.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.config import Config
from repro.engine.context import EngineContext
from repro.errors import AnalysisError, ReproError
from repro.sql.analysis import Analyzer
from repro.sql.dataframe import DataFrame
from repro.sql.expressions import Expression
from repro.sql.logical import LogicalPlan, Relation, UnresolvedRelation
from repro.sql.optimizer import Optimizer, Rule
from repro.sql.planner import Planner, Strategy
from repro.sql.relation import RowRelation
from repro.sql.types import StructType


class Catalog:
    """Temp-view registry: name → logical plan."""

    def __init__(self) -> None:
        self._tables: dict[str, LogicalPlan] = {}

    def register(self, name: str, plan: LogicalPlan) -> None:
        self._tables[name.lower()] = plan

    def lookup(self, name: str) -> LogicalPlan:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise AnalysisError(f"table or view not found: {name}") from None

    def drop(self, name: str) -> bool:
        return self._tables.pop(name.lower(), None) is not None

    def names(self) -> list[str]:
        return sorted(self._tables)


class SessionExtensions:
    """Injected rules/strategies (Spark's ``SparkSessionExtensions``)."""

    def __init__(self) -> None:
        self.optimizer_rules: list[Rule] = []
        self.planner_strategies: list[Strategy] = []

    def inject_optimizer_rule(self, rule: Rule) -> None:
        self.optimizer_rules.append(rule)

    def inject_planner_strategy(self, strategy: Strategy) -> None:
        self.planner_strategies.append(strategy)


class Session:
    """Entry point for DataFrame and SQL workloads.

    Example::

        session = Session(Config(shuffle_partitions=4))
        df = session.create_dataframe(
            [(1, "ann"), (2, "bob")], [("id", "long"), ("name", "string")]
        )
        df.create_or_replace_temp_view("people")
        session.sql("SELECT name FROM people WHERE id = 2").show()
    """

    def __init__(
        self, config: Config | None = None, extensions: SessionExtensions | None = None
    ):
        self.config = config or Config()
        # The session is the composition root: it injects the process
        # backend the engine never imports (same lazy pattern as below).
        backend = None
        if self.config.executors > 0:
            from repro.cluster import process_backend

            backend = process_backend
        self.ctx = EngineContext(self.config, backend)
        self.catalog = Catalog()
        self.extensions = extensions or SessionExtensions()
        self.analyzer = Analyzer()
        # Durable state (WAL + checkpoints + recovery). Imported lazily
        # and only when enabled: with the flag off the session carries
        # no durability machinery at all and behaves bit-identically.
        self.durability = None
        if self.config.durability_enabled:
            from repro.durability import DurabilityCoordinator

            self.durability = DurabilityCoordinator(self)
        # Serving layer (admission control, deadlines, memory budgets,
        # circuit breakers). Same lazy pattern: with the flag off the
        # session carries none of the governance machinery.
        self.serving = None
        if self.config.serving_enabled:
            from repro.serving import ServingRuntime

            self.serving = ServingRuntime(self)
        self._rebuild_pipeline()

    def _rebuild_pipeline(self) -> None:
        """(Re)build optimizer/planner after extension registration."""
        from repro.sql.plan_cache import PlanCache

        self.optimizer = Optimizer(extra_rules=self.extensions.optimizer_rules)
        self.planner = Planner(
            self, extra_strategies=self.extensions.planner_strategies
        )
        # Rebuilt (empty) alongside the optimizer: a cached template is
        # only valid for the rule set that produced it.
        self.plan_cache = (
            PlanCache(self.config.plan_cache_size)
            if self.config.plan_cache_size > 0
            else None
        )

    def optimize_plan(self, df: DataFrame) -> LogicalPlan:
        """Analyze and optimize a DataFrame's plan, memoizing the
        analyzer and the standard batches.

        The plan cache keys on a fingerprint of the plan as built
        (tables resolved, nothing analyzed) with comparison literals
        masked as parameter slots, so a repeated query shape
        (``id = ?``) skips analysis and the rule fixed-point entirely;
        only a miss analyzes. The versions of indexed leaves are
        parameters as well, so the shape survives appends. Extension
        rules always run fresh — they bake literal values and MVCC
        versions into the plan (see :mod:`repro.sql.plan_cache`).
        """
        resolved = self.resolve_tables(df.plan)
        cache = self.plan_cache
        if cache is None:
            return self.optimizer.optimize(self.analyzer.analyze(resolved))
        from repro.sql.plan_cache import fingerprint

        metrics = self.ctx.scheduler.metrics
        fp = fingerprint(resolved)
        # Full-plan level: extension output (index rewrites with their
        # literal keys and MVCC versions baked in) memoized by exact
        # (shape, values, versions), so an append invalidates by
        # construction and a stale bitmap-vs-cTrie era plan is never
        # replayed.
        full = cache.lookup_full(fp)
        if full is not None:
            metrics.bump("plan_cache_hits")
            metrics.bump("plan_cache_full_hits")
            return full
        plan = cache.lookup(fp)
        if plan is None:
            metrics.bump("plan_cache_misses")
            # The tree just fingerprinted, so the template's slot
            # literals and leaves are the fingerprint's by identity.
            plan = self.optimizer.optimize_standard(self.analyzer.analyze(resolved))
            cache.insert(fp, plan)
        else:
            metrics.bump("plan_cache_hits")
        final = self.optimizer.run_extensions(plan)
        cache.insert_full(fp, final)
        return final

    # ------------------------------------------------------------------
    # DataFrame construction
    # ------------------------------------------------------------------

    def create_dataframe(
        self,
        data: Sequence[Sequence[Any] | Mapping[str, Any]],
        schema: StructType | Sequence[tuple[str, Any]],
        num_partitions: int | None = None,
        validate: bool = True,
    ) -> DataFrame:
        """Create a DataFrame from local rows (tuples or dicts)."""
        if not isinstance(schema, StructType):
            schema = StructType.from_pairs(list(schema))
        rows: list[tuple] = []
        for item in data:
            if isinstance(item, Mapping):
                rows.append(tuple(item.get(name) for name in schema.names))
            else:
                rows.append(tuple(item))
        relation = RowRelation.from_rows(
            schema,
            rows,
            num_partitions or self.config.default_parallelism,
            validate=validate,
        )
        return DataFrame(self, Relation(relation))

    def table(self, name: str) -> DataFrame:
        return DataFrame(self, self.catalog.lookup(name))

    def create_or_replace_temp_view(self, name: str, df: DataFrame) -> None:
        self.catalog.register(name, df.plan)

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------

    def sql(self, text: str) -> DataFrame:
        """Run a SQL statement.

        ``SELECT`` queries return a DataFrame; ``CREATE [OR REPLACE]
        TEMP[ORARY] VIEW name AS SELECT ...`` registers a view and
        returns an empty DataFrame (like Spark's DDL results).
        """
        from repro.sql.parser import parse_query

        ddl = self._try_parse_create_view(text)
        if ddl is not None:
            name, body = ddl
            self.catalog.register(name, parse_query(body))
            from repro.sql.logical import LocalRelation

            return DataFrame(self, LocalRelation([], []))
        return DataFrame(self, parse_query(text))

    @staticmethod
    def _try_parse_create_view(text: str) -> tuple[str, str] | None:
        """Match the CREATE TEMP VIEW prefix; returns (name, query)."""
        import re

        pattern = re.compile(
            r"^\s*create\s+(?:or\s+replace\s+)?temp(?:orary)?\s+view\s+"
            r"([A-Za-z_][A-Za-z0-9_]*)\s+as\s+(.*)$",
            re.IGNORECASE | re.DOTALL,
        )
        match = pattern.match(text)
        if match is None:
            if re.match(r"^\s*create\b", text, re.IGNORECASE):
                raise AnalysisError(
                    "only CREATE [OR REPLACE] TEMP VIEW <name> AS <select> "
                    "is supported"
                )
            return None
        return match.group(1), match.group(2)

    def parse_expression(self, text: str) -> Expression:
        from repro.sql.parser import parse_expression

        return parse_expression(text)

    def resolve_tables(self, plan: LogicalPlan) -> LogicalPlan:
        """Replace UnresolvedRelation leaves with catalog plans and
        desugar IN-subqueries into semi/anti joins."""

        from repro.sql.logical import instantiate_plan

        def resolve(node: LogicalPlan) -> LogicalPlan:
            if isinstance(node, UnresolvedRelation):
                resolved = self.resolve_tables(self.catalog.lookup(node.name))
                # Fresh ids per reference: a table used twice (self-join)
                # must not share attribute identities.
                return instantiate_plan(resolved)
            return node

        return self._desugar_subqueries(plan.transform_up(resolve))

    def _desugar_subqueries(self, plan: LogicalPlan) -> LogicalPlan:
        """``WHERE x IN (SELECT ...)`` → left-semi join (anti for NOT)."""
        from repro.sql.expressions import (
            EqualTo,
            InSubquery,
            combine_conjuncts,
            split_conjuncts,
        )
        from repro.sql.logical import Filter, Join

        def desugar(node: LogicalPlan) -> LogicalPlan:
            if not isinstance(node, Filter):
                self._reject_stray_subqueries(node)
                return node
            conjuncts = split_conjuncts(node.condition)
            markers = [c for c in conjuncts if isinstance(c, InSubquery)]
            if not markers:
                for conjunct in conjuncts:
                    self._reject_nested_subqueries(conjunct)
                return node
            child = node.child
            for marker in markers:
                sub_plan = self.resolve_tables(marker.plan)
                analyzed = self.analyzer.analyze(sub_plan)
                output = analyzed.output()
                if len(output) != 1:
                    raise AnalysisError(
                        f"IN subquery must return exactly one column, got "
                        f"{len(output)}"
                    )
                how = "anti" if marker.negated else "semi"
                # The tested value belongs to the OUTER scope: resolve
                # it against the filter child now, so it can never be
                # captured by a same-named subquery column.
                value = self._resolve_against(marker.value, child)
                child = Join(child, analyzed, how, EqualTo(value, output[0]))
            rest = combine_conjuncts(
                [c for c in conjuncts if not isinstance(c, InSubquery)]
            )
            return Filter(rest, child) if rest is not None else child

        return plan.transform_up(desugar)

    @staticmethod
    def _resolve_against(expr: "Expression", plan: LogicalPlan) -> "Expression":
        """Best-effort resolution of name references against one plan's
        output (used to pin outer-scope names during desugaring)."""
        from repro.sql.analysis import resolve_name
        from repro.sql.expressions import UnresolvedAttribute

        try:
            attrs = plan.output()
        except (ReproError, AttributeError, TypeError):
            # Child not resolvable yet; fail-stop errors propagate.
            return expr

        def resolve(node: "Expression") -> "Expression":
            if isinstance(node, UnresolvedAttribute):
                found = resolve_name(node.name, node.qualifier, attrs)
                if found is not None:
                    return found
            return node

        return expr.transform_up(resolve)

    @staticmethod
    def _reject_nested_subqueries(expr: "Expression") -> None:
        from repro.sql.expressions import InSubquery

        for _hit in expr.collect(lambda e: isinstance(e, InSubquery)):
            raise AnalysisError(
                "IN (SELECT ...) is only supported as a top-level WHERE conjunct"
            )

    @staticmethod
    def _reject_stray_subqueries(node: LogicalPlan) -> None:
        from repro.sql.expressions import InSubquery

        for expr in node.expressions():
            for _hit in expr.collect(lambda e: isinstance(e, InSubquery)):
                raise AnalysisError(
                    "IN (SELECT ...) is only supported in a WHERE clause"
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def serve(
        self,
        text: str,
        *,
        tenant: str = "default",
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> "Any":
        """Run a SQL query through the serving layer.

        Unlike :meth:`sql` (which returns a lazy DataFrame), this
        admits the query through the admission controller, executes it
        under its deadline/memory budgets, and returns a
        :class:`~repro.serving.ServingResult` with the collected rows.
        Raises :class:`~repro.errors.QueryRejectedError` under
        overload and :class:`~repro.errors.QueryCancelledError` when
        the deadline or a memory kill fires.
        """
        if self.serving is None:
            raise AnalysisError(
                "serving is disabled; construct the Session with "
                "Config(serving_enabled=True) or set REPRO_SERVING=1"
            )
        return self.serving.execute(
            text, tenant=tenant, deadline_s=deadline_s, priority=priority
        )

    def stop(self) -> None:
        if self.serving is not None:
            self.serving.cancel_all("session stopped")
        if self.durability is not None:
            self.durability.close()
        self.ctx.stop()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
