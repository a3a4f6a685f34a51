"""Unit tests for the cross-module rule families (LO/ET/CP/FS/XP).

Each family is exercised through ``check_paths`` on small synthetic
modules written to ``tmp_path``, isolated with ``--select`` semantics
so the other families stay out of the assertions. The seeded
``bad_*`` fixtures are covered end-to-end in ``test_cli.py``; here we
pin the *boundaries*: what must fire, what must stay silent, and that
the analyzer survives edge-case shapes without crashing.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.__main__ import check_paths

FIXTURES = Path(__file__).parent / "fixtures"


def run_rules(tmp_path, source, name="mod.py", select=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return check_paths([str(path)], select=select)


def rules_of(violations):
    return sorted(v.rule for v in violations)


# ---------------------------------------------------------------------------
# LO — lock ordering
# ---------------------------------------------------------------------------


class TestLockOrdering:
    def test_opposed_nesting_is_a_cycle(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            import threading

            class AB:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def ab(self):
                    with self._a:
                        with self._b:
                            pass

                def ba(self):
                    with self._b:
                        with self._a:
                            pass
            """,
            select=["LO"],
        )
        assert rules_of(found) == ["LO001"]

    def test_consistent_nesting_is_clean(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            import threading

            class AB:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """,
            select=["LO"],
        )
        assert found == []

    def test_cross_class_cycle_via_unique_method_name(self, tmp_path):
        # Holding A's lock while calling B.ingest (which takes B's
        # lock), and vice versa via B.drain -> A.offer: a two-module
        # deadlock no single-module view can see.
        found = run_rules(
            tmp_path,
            """
            import threading

            class Producer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.sink = None

                def push(self):
                    with self._lock:
                        self.sink.ingest()

                def offer(self):
                    with self._lock:
                        pass

            class Consumer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.source = None

                def ingest(self):
                    with self._lock:
                        pass

                def drain(self):
                    with self._lock:
                        self.source.offer()
            """,
            select=["LO"],
        )
        assert rules_of(found) == ["LO001"]

    def test_builtin_container_methods_do_not_alias(self, tmp_path):
        # self._rows.append(...) under a lock must NOT resolve to some
        # class that happens to define a lock-taking `append` — that
        # conflation invents phantom cycles (the IndexedPartition /
        # PartitionBitmapIndex regression).
        found = run_rules(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._append_lock = threading.Lock()
                    self.index = Index()

                def append(self, row):
                    with self._append_lock:
                        self.index.record(row)

            class Index:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = []

                def record(self, row):
                    with self._lock:
                        self._rows.append(row)
            """,
            select=["LO"],
        )
        assert found == []

    def test_rlock_reacquire_is_legal_plain_lock_is_not(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            import threading

            class Both:
                def __init__(self):
                    self._r = threading.RLock()
                    self._p = threading.Lock()

                def reentrant(self):
                    with self._r:
                        with self._r:
                            pass

                def deadlock(self):
                    with self._p:
                        with self._p:
                            pass
            """,
            select=["LO"],
        )
        assert rules_of(found) == ["LO002"]

    def test_requires_lock_method_must_not_self_acquire(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            import threading

            class Guarded:
                def __init__(self):
                    self._lock = threading.Lock()

                def _flush(self):  # requires-lock: _lock
                    with self._lock:
                        pass
            """,
            select=["LO003"],
        )
        assert rules_of(found) == ["LO003"]


# ---------------------------------------------------------------------------
# ET — exception taxonomy
# ---------------------------------------------------------------------------


class TestExceptionTaxonomy:
    def test_failstop_guard_licenses_broad_handler(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            from repro.errors import FAIL_STOP

            def guarded(task):
                try:
                    return task()
                except FAIL_STOP:
                    raise
                except Exception:
                    return None
            """,
            select=["ET"],
        )
        assert found == []

    def test_wrap_and_raise_passes(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            def wraps(task):
                try:
                    return task()
                except Exception as exc:
                    raise RuntimeError("task failed") from exc
            """,
            select=["ET"],
        )
        assert found == []

    def test_raise_inside_nested_def_does_not_count(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            def sneaky(task):
                try:
                    return task()
                except Exception:
                    def later():
                        raise RuntimeError("not a re-raise")
                    return later
            """,
            select=["ET"],
        )
        assert rules_of(found) == ["ET001"]

    def test_allow_requires_justification(self, tmp_path):
        bare = run_rules(
            tmp_path,
            """
            def absorb(task):
                try:
                    return task()
                except BaseException:  # lint: allow[ET002]
                    return None
            """,
            select=["ET"],
        )
        assert rules_of(bare) == ["ET002"]
        justified = run_rules(
            tmp_path,
            """
            def absorb(task):
                try:
                    return task()
                except BaseException:  # lint: allow[ET002] -- test double, result is the report
                    return None
            """,
            name="mod2.py",
            select=["ET"],
        )
        assert justified == []

    def test_retry_set_crosschecked_against_error_hierarchy(self, tmp_path):
        # A subclass of a fail-stop class sneaks in only via the
        # cross-module hierarchy in repro/errors.py.
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "errors.py").write_text(
            textwrap.dedent(
                """
                class SanitizerError(Exception):
                    pass

                class ZoneTrip(SanitizerError):
                    pass
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "sched.py").write_text(
            textwrap.dedent(
                """
                from repro.errors import ZoneTrip

                def _find_transient(exc):
                    if isinstance(exc, (ConnectionError, ZoneTrip)):
                        return exc
                    return None
                """
            ),
            encoding="utf-8",
        )
        found = check_paths(
            [str(tmp_path / "repro" / "errors.py"), str(tmp_path / "sched.py")],
            select=["ET004"],
        )
        assert rules_of(found) == ["ET004"]


# ---------------------------------------------------------------------------
# CP — cancellation polls
# ---------------------------------------------------------------------------


class TestCancellationPolls:
    def test_generator_loops_are_exempt(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            # analysis: poll-obligated
            def stream(partitions, query):
                query.check()
                for partition in partitions:
                    yield partition.read()
            """,
            select=["CP"],
        )
        assert found == []

    def test_pure_structure_walk_is_exempt(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            # analysis: poll-obligated
            def unwrap(exc, query):
                query.check()
                while exc is not None:
                    if isinstance(exc, ValueError):
                        return exc
                    exc = getattr(exc, "cause", None)
                return None
            """,
            select=["CP"],
        )
        assert found == []

    def test_polling_callee_satisfies_the_loop(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            # analysis: poll-obligated
            def _tick(query):
                query.check()

            def pump(pending, query):
                while pending:
                    _tick(query)
                    pending.pop()
            """,
            select=["CP"],
        )
        assert found == []

    def test_marked_class_scopes_the_obligation(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            import time

            class Driver:  # analysis: poll-obligated
                def spin(self, batches):
                    for batch in batches:
                        time.sleep(0.1)

            class Helper:
                def spin(self, batches):
                    for batch in batches:
                        time.sleep(0.1)
            """,
            select=["CP001"],
        )
        assert rules_of(found) == ["CP001"]
        assert found[0].line < 9  # the Driver loop, not Helper's


# ---------------------------------------------------------------------------
# FS — fault sites
# ---------------------------------------------------------------------------


class TestFaultSites:
    def test_registered_literal_is_clean(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            def f(injector):
                injector.maybe_fail("shuffle.fetch")
            """,
            select=["FS"],
        )
        assert found == []

    def test_forwarded_site_variables_are_skipped(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            def f(injector, site):
                injector.maybe_fail(site)
            """,
            select=["FS"],
        )
        assert found == []

    def test_unregistered_literal_fires(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            def f(injector):
                injector.should_fire("no.such.site")
            """,
            select=["FS"],
        )
        assert rules_of(found) == ["FS001"]

    def test_dead_site_needs_the_registry_in_scope(self, tmp_path):
        # FS002 only fires when faults/injector.py itself is analyzed;
        # a partial run cannot prove a site dead.
        partial = run_rules(
            tmp_path,
            """
            def f(injector):
                injector.maybe_fail("shuffle.fetch")
            """,
            select=["FS002"],
        )
        assert partial == []
        (tmp_path / "faults").mkdir()
        (tmp_path / "faults" / "injector.py").write_text(
            'SITES = ("placeholder",)\n', encoding="utf-8"
        )
        full = check_paths(
            [str(tmp_path / "mod.py"), str(tmp_path / "faults" / "injector.py")],
            select=["FS002"],
        )
        # Every *live* registered site except shuffle.fetch is unused in
        # this two-file program.
        assert full and all(v.rule == "FS002" for v in full)
        assert not any("shuffle.fetch" in v.message for v in full)


# ---------------------------------------------------------------------------
# XP — process-boundary escapes
# ---------------------------------------------------------------------------


class TestEscapes:
    def test_plain_data_shipped_class_is_clean(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            class Snapshot:  # analysis: shipped
                def __init__(self, rows, version):
                    self.rows = list(rows)
                    self.version = version
            """,
            select=["XP"],
        )
        assert found == []

    def test_shipped_lock_fires_only_on_marked_class(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            import threading

            class Shipped:  # analysis: shipped
                def __init__(self):
                    self._lock = threading.Lock()

            class DriverLocal:
                def __init__(self):
                    self._lock = threading.Lock()
            """,
            select=["XP"],
        )
        assert rules_of(found) == ["XP001"]

    def test_worker_marker_scopes_view_mutation(self, tmp_path):
        found = run_rules(
            tmp_path,
            """
            class Worker:  # analysis: worker-side
                def bad(self, snapshot_view, row):
                    snapshot_view.append(row)

            class Driver:
                def fine(self, snapshot_view, row):
                    snapshot_view.append(row)
            """,
            select=["XP"],
        )
        assert rules_of(found) == ["XP002"]


# ---------------------------------------------------------------------------
# Robustness: edge-case shapes must neither crash nor false-positive
# ---------------------------------------------------------------------------


EDGE_CASES = """
# Clean module exercising analyzer edge cases: nested `with` on
# attribute-resolved locks, generators, decorated functions, closures,
# lambdas, and async defs. Every rule family must stay silent here.
import functools
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


class Manager:
    def __init__(self):
        self._lock = threading.Lock()
        self.stats = Stats()
        self.entries = []  # guarded-by: _lock

    def bump(self):
        # Nested with on an attribute-resolved lock: Manager._lock
        # always precedes Stats._lock, a consistent global order.
        with self._lock:
            with self.stats._lock:
                self.stats.hits += 1

    @traced
    def decorated(self):
        with self._lock:
            self.entries.append(1)

    def stream(self):
        # Generator: its loop runs inside the consumer's loop.
        with self._lock:
            items = list(self.entries)
        for item in items:
            yield item

    def deferred(self):
        # Closure runs after the with released: no held-lock facts leak.
        with self._lock:
            task = lambda: self.stats.hits
        return task

    async def aio(self):
        with self._lock:
            return len(self.entries)
"""


def test_edge_case_module_is_clean_and_does_not_crash(tmp_path):
    path = tmp_path / "edge_cases.py"
    path.write_text(EDGE_CASES, encoding="utf-8")
    assert check_paths([str(path)]) == []


def test_every_file_is_parsed_once(monkeypatch):
    import ast

    parsed = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        parsed.append(source)
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    check_paths(["src/repro"])
    assert len(parsed) == len(list(Path("src/repro").rglob("*.py")))


def test_shipped_tree_is_clean_for_program_families():
    found = check_paths(["src/repro"], select=["LO", "ET", "CP", "FS", "XP"])
    assert found == []


def test_fixture_expectations():
    expectations = {
        "bad_lock_order.py": {"LO001", "LO002", "LO003"},
        "bad_taxonomy.py": {"ET001", "ET002", "ET003", "ET004"},
        "bad_cancellation.py": {"CP001", "CP002"},
        "bad_fault_sites.py": {"FS001"},
        "bad_escape.py": {"XP001", "XP002", "XP003"},
    }
    for name, expected in expectations.items():
        found = check_paths([str(FIXTURES / name)])
        assert expected <= {v.rule for v in found}, (name, rules_of(found))
