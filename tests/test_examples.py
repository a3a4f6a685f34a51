"""Smoke tests: the shipped examples must run end to end."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "quickstart done." in out
    assert "IndexLookup" in out
    assert "IndexedJoin" in out


def test_examples_exist_and_compile():
    for name in (
        "quickstart.py",
        "graph_monitoring.py",
        "threat_detection.py",
        "social_graph_analytics.py",
    ):
        path = os.path.join(EXAMPLES, name)
        assert os.path.exists(path)
        source = open(path).read()
        compile(source, path, "exec")  # syntax check, no execution
