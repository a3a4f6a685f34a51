"""End-to-end CLI contract: exit codes, output format, rule listing."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=120,
    )


def test_shipped_tree_exits_zero():
    result = run_cli("src/")
    assert result.returncode == 0, result.stdout + result.stderr


def test_each_fixture_exits_nonzero_with_rule_and_location():
    expectations = {
        "bad_lock_discipline.py": ("LD001", "LD002", "LD003", "LD004"),
        "bad_plan_contract.py": ("PC001", "PC002", "PC003", "PC004", "PC005"),
        "bad_kernel.gensrc": ("CG001", "CG003", "CG004"),
        "bad_lock_order.py": ("LO001", "LO002", "LO003"),
        "bad_taxonomy.py": ("ET001", "ET002", "ET003", "ET004"),
        "bad_cancellation.py": ("CP001", "CP002"),
        "bad_fault_sites.py": ("FS001",),
        "bad_escape.py": ("XP001", "XP002", "XP003"),
    }
    for name, rules in expectations.items():
        result = run_cli(str(FIXTURES / name), "--no-self-check")
        assert result.returncode != 0, name
        for rule in rules:
            assert rule in result.stdout, (name, rule, result.stdout)
        # file:line format on every reported line
        for line in result.stdout.strip().splitlines():
            assert f"{name}:" in line, line


def test_list_rules_covers_registry():
    from repro.analysis import RULES

    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in RULES:
        assert rule in result.stdout


def test_self_check_compiles_real_kernels():
    # Restrict paths to an empty-but-valid target: only the self-check runs.
    result = run_cli("src/repro/analysis/report.py")
    assert result.returncode == 0, result.stdout + result.stderr


def test_json_format_is_machine_readable():
    import json

    result = run_cli(
        str(FIXTURES / "bad_taxonomy.py"), "--format", "json", "--no-self-check"
    )
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert set(doc) == {"files_checked", "violations", "self_check_failures"}
    assert doc["files_checked"] == 1
    assert doc["self_check_failures"] == []
    rules = {v["rule"] for v in doc["violations"]}
    assert {"ET001", "ET002", "ET003", "ET004"} <= rules
    for violation in doc["violations"]:
        assert set(violation) == {"rule", "path", "line", "message"}
        assert isinstance(violation["line"], int)


def test_select_and_ignore_filter_by_rule_or_family():
    fixture = str(FIXTURES / "bad_taxonomy.py")
    only_et002 = run_cli(fixture, "--select", "ET002", "--no-self-check")
    assert "ET002" in only_et002.stdout
    assert "ET001" not in only_et002.stdout
    ignored = run_cli(fixture, "--ignore", "ET", "--no-self-check")
    assert ignored.returncode == 0, ignored.stdout
    family = run_cli(fixture, "--select", "ET", "--no-self-check")
    assert {"ET001", "ET002", "ET003", "ET004"} <= {
        line.split()[1] for line in family.stdout.strip().splitlines()
    }
