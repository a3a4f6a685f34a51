"""Smoke test of the matrix harness (not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/matrix -q

Runs every workload once at ``--scale tiny`` with the traced repeat and
checks the contract between ``BENCHMARK.json`` and what is printed.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in run.SPEC["workloads"]]


def _run(monkeypatch, capsys, *argv: str) -> tuple[dict, str]:
    monkeypatch.setattr(sys, "argv", ["run.py", *argv])
    assert run.main() == 0
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[-1]), out


def test_spec_names_are_well_formed():
    names = [m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]] + WORKLOADS
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert "setup_s" in run.E2E and run.SPEC["paths"] == ["benchmarks/matrix"]


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    result, _out = _run(monkeypatch, capsys, "--workload", "snb_short_reads", "--scale", "tiny",
                        "--seconds", "0.3", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.E2E)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.E2E[name]["unit"] and metric["value"] > 0, name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload, monkeypatch, capsys):
    result, out = _run(monkeypatch, capsys, "--workload", workload, "--scale", "tiny",
                       "--seconds", "0.4", "--trace", "1")
    metrics = result["metrics"]
    assert set(metrics) == set(run.LAYER)
    assert all(m["unit"] == run.LAYER[n]["unit"] for n, m in metrics.items())
    assert result["correct"] and result["failed"] == 0 and metrics["failed_frac"]["value"] == 0
    for name, spec in run.E2E.items():  # the table above the JSON line names them with their unit
        assert re.search(rf"^{re.escape(name)}\s+[0-9.]+ {re.escape(spec['unit'])}$", out, re.M), name
    assert "run.unattributed_frac" in metrics and 0 <= metrics["run.unattributed_frac"]["value"] <= 1
    assert metrics["run.samples"]["value"] > 0

    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    assert not trace["leaks"]
    assert set(trace["per_layer"]) <= set(run.LAYER), "a metric is measured but not in BENCHMARK.json"
    fields = trace["span_fields"]
    spans = {s[0]: dict(zip(fields, s)) for s in trace["spans"]}
    ops = [s for s in spans.values() if s["layer:what"].startswith("op:")]
    assert ops and len({s["op"] for s in ops}) == len(ops)  # one op id per operation
    for span in spans.values():
        parent = spans.get(span["parent"])
        if parent is None:
            assert span["parent"] == 0
            continue
        assert span["op"] == parent["op"], span
        assert parent["t0"] - 1e-5 <= span["t0"] and span["t1"] <= parent["t1"] + 1e-5, span
    assert any(s["op"] and not s["layer:what"].startswith("op:") for s in spans.values())
