"""Lock-discipline rules (LD*): rule behavior, fixtures, annotations."""

import textwrap
from pathlib import Path

from repro.analysis.__main__ import check_paths

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent.parent / "src" / "repro"


def rules_of(violations):
    return sorted(v.rule for v in violations)


def check(tmp_path, source):
    path = tmp_path / "t.py"
    path.write_text(source, encoding="utf-8")
    return check_paths([str(path)], select=["LD"])


class TestRules:
    def test_write_outside_lock_is_ld001(self, tmp_path):
        violations = check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def bump(self):
        self.n += 1
"""
        )
        assert rules_of(violations) == ["LD001"]
        assert violations[0].line == 10

    def test_write_inside_lock_is_clean(self, tmp_path):
        assert not check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self.n += 1
"""
        )

    def test_subscript_and_del_writes_checked(self, tmp_path):
        violations = check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.m = {}  # guarded-by: _lock

    def put(self, k, v):
        self.m[k] = v

    def drop(self, k):
        del self.m[k]
"""
        )
        assert rules_of(violations) == ["LD001", "LD001"]

    def test_mutator_call_outside_lock_is_ld002(self, tmp_path):
        violations = check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []  # guarded-by: _lock

    def push(self, x):
        self.items.append(x)
"""
        )
        assert rules_of(violations) == ["LD002"]

    def test_non_mutating_call_is_clean(self, tmp_path):
        assert not check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.m = {}  # guarded-by: _lock

    def peek(self, k):
        return self.m.get(k)
"""
        )

    def test_requires_lock_grants_and_demands(self, tmp_path):
        violations = check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def _inc(self):  # requires-lock: _lock
        self.n += 1

    def good(self):
        with self._lock:
            self._inc()

    def bad(self):
        self._inc()
"""
        )
        assert rules_of(violations) == ["LD003"]

    def test_unknown_lock_is_ld004(self, tmp_path):
        violations = check(
            tmp_path,
            """
class C:
    x: int = 0  # guarded-by: _ghost
"""
        )
        assert rules_of(violations) == ["LD004"]

    def test_closure_does_not_inherit_the_lock(self, tmp_path):
        violations = check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def start(self):
        with self._lock:
            def worker():
                self.n += 1
            return worker
"""
        )
        assert rules_of(violations) == ["LD001"]

    def test_closure_may_take_the_lock_itself(self, tmp_path):
        assert not check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def start(self):
        def worker():
            with self._lock:
                self.n += 1
        return worker
"""
        )

    def test_init_is_exempt(self, tmp_path):
        assert not check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock
        self.n = 1
"""
        )

    def test_allow_comment_suppresses(self, tmp_path):
        assert not check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def bump(self):
        self.n += 1  # lint: allow[LD001] -- single-writer counter, racy reads tolerated
"""
        )

    def test_bare_allow_does_not_suppress(self, tmp_path):
        violations = check(
            tmp_path,
            """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def bump(self):
        self.n += 1  # lint: allow[LD001]
"""
        )
        assert rules_of(violations) == ["LD001"]
        assert violations[0].line == 10

    def test_lock_inherited_from_base_in_another_module_is_clean(self, tmp_path):
        (tmp_path / "base.py").write_text(
            textwrap.dedent(
                """
                import threading

                class Registry:
                    def __init__(self):
                        self._lock = threading.Lock()
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "child.py").write_text(
            textwrap.dedent(
                """
                from base import Registry

                class SpillRegistry(Registry):
                    def __init__(self):
                        super().__init__()
                        self._files = {}  # guarded-by: _lock

                    def put(self, k, v):
                        with self._lock:
                            self._files[k] = v

                    def _drop(self, k):  # requires-lock: _lock
                        del self._files[k]
                """
            ),
            encoding="utf-8",
        )
        found = check_paths(
            [str(tmp_path / "base.py"), str(tmp_path / "child.py")],
            select=["LD"],
        )
        assert found == []

    def test_lock_defined_nowhere_is_still_ld004(self, tmp_path):
        violations = check(
            tmp_path,
            """
class Registry:
    pass

class SpillRegistry(Registry):
    def __init__(self):
        self._files = {}  # guarded-by: _lock
"""
        )
        assert rules_of(violations) == ["LD004"]


class TestTree:
    def test_fixture_reports_every_ld_rule(self):
        violations = check_paths(
            [str(FIXTURES / "bad_lock_discipline.py")], select=["LD"]
        )
        assert {"LD001", "LD002", "LD003", "LD004"} <= {v.rule for v in violations}

    def test_annotations_present_in_partition(self):
        source = (SRC / "core" / "partition.py").read_text()
        assert "# guarded-by: _append_lock" in source
        assert "# requires-lock: _append_lock" in source
        assert "caller holds the lock" not in source.lower()
