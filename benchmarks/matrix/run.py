"""Run one workload of the matrix and print every metric by name.

    python3 benchmarks/matrix/run.py --workload snb_short_reads --seed 1 --seconds 10 --trace 0

prints the metric table and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1`` (which also writes ``out/trace-<workload>.json``).

    --repeat K [--out FILE]   K untraced runs per workload on seeds seed..seed+K-1; median and quartiles
    --check                   two such sets (K=5 by default, runs alternating) on the same code; non-zero
                              exit if a metric differs by more than its bound, in either direction
    --compare A.json B.json   one row per (workload, metric) of two --out files; non-zero exit if B is worse
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

import harness  # noqa: E402  (needs the path above; fails without src/, by design)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: The issue's other seven end-to-end metrics exist on some workloads
#: only (or must be 0). ``end_to_end`` of BENCHMARK.json holds what every
#: run of every workload reports non-zero, and its ``per_layer`` entries
#: carry no bound, so the bounds of these seven live here.
LAYER_BOUNDS = {"read_p99_ms": 0.25, "append_rows_per_s": 0.20, "append_p50_ms": 0.10, "append_p99_ms": 0.30,
                "recover_s": 0.20, "stored_bytes_per_row_byte": 0.01, "failed_frac": 0.0}
#: Everything --check/--compare hold to a bound: name → (better, bound).
BOUNDS = {n: (m["better"], m["bound"]) for n, m in E2E.items()}
BOUNDS.update({n: (LAYER[n]["better"], bound) for n, bound in LAYER_BOUNDS.items()})


def run_once(args: argparse.Namespace) -> int:
    doc = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.ops)
    spec = LAYER if args.trace else E2E
    values = {**doc["end_to_end"], **doc["per_layer"]}
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": m["unit"]} for name, m in spec.items()}
    host = doc["host"]
    print(f"# {args.workload} seed={args.seed} scale={args.scale} seconds={args.seconds} "
          f"commit={host['commit'][:12]} nproc={host['nproc']} python={host['python']} "
          f"load={host['loadavg_start']:.2f}->{host['loadavg_end']:.2f} ops={doc['attempted']}")
    for name in (n for n in BOUNDS if n in values):  # measured with tracing off on every run
        print(f"{name:48s} {values[name]:14.4f} {(E2E.get(name) or LAYER[name])['unit']}")
    for name, m in metrics.items() if args.trace else ():
        if m["value"] and name not in BOUNDS:
            print(f"{name:48s} {m['value']:14.4f} {m['unit']}")
    for what, ok in doc["preconditions"].items():
        print(f"precondition {'ok  ' if ok else 'FAIL'} {what}")
    for layer, share in doc["share_of_op_time"].items():
        print(f"share {layer:32s} {share:6.1%}")
    for problem in doc["failures"] + [f"LEAK {leak}" for leak in doc["leaks"]]:
        print(problem, file=sys.stderr)
    (harness.OUT / f"result-{args.workload}.json").write_text(json.dumps(doc, indent=1))
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 1 if doc["leaks"] else 0


def run_sets(args: argparse.Namespace, workloads: list[str], sides: int = 1) -> list[dict[str, dict[str, list[float]]]]:
    """``--repeat`` untraced runs of each workload per side, each in a
    fresh process (peak RSS and caches must not carry over). The sides
    take turns, so a slow minute of the host falls on both."""
    out: list[dict[str, dict[str, list[float]]]] = [{} for _ in range(sides)]
    for name in workloads:
        for k in range(args.repeat):
            for side in out:
                cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed + k), "--seconds",
                       str(args.seconds), "--trace", "0", "--scale", args.scale, "--ops", str(args.ops)]
                subprocess.run(cmd, check=True, capture_output=True, text=True)
                doc = json.loads((harness.OUT / f"result-{name}.json").read_text())
                values = {**doc["end_to_end"], **doc["per_layer"]}
                for metric in (n for n in BOUNDS if n in values):
                    side.setdefault(name, {}).setdefault(metric, []).append(values[metric])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a: dict, b: dict, either_way: bool = False) -> int:
    """Rows of (workload, metric): medians, ratio with its base, bound,
    verdict. ``either_way`` (the A/A check) also counts b being better."""
    worse = 0
    print(f"{'workload':20s} {'metric':28s} {'a':>12s} {'b':>12s} {'b/a':>8s} {'bound':>6s}  verdict")
    for workload in a:
        for metric, (better, bound) in BOUNDS.items():
            va, vb = a[workload].get(metric), b.get(workload, {}).get(metric)
            if not va or not vb or not (any(va) or any(vb)):
                continue  # not measured on this workload
            (a1, ma, a3), (_b1, mb, _b3) = quartiles(va), quartiles(vb)
            ratio = mb / ma if ma else (float("inf") if mb else 1.0)
            loss = ratio - 1.0 if better == "lower" else 1.0 - ratio
            if loss > bound:
                verdict, worse = "worse", worse + 1
            elif either_way and -loss > bound:
                verdict, worse = "differs", worse + 1
            elif ma and (a3 - a1) / ma > bound:
                verdict = "unresolved"  # the spread of a's own runs is wider than the bound
            else:
                verdict = "unchanged"
            print(f"{workload:20s} {metric:28s} {ma:12.4f} {mb:12.4f} {ratio:8.3f} {bound:6.2f}  {verdict}")
    return worse


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--ops", type=int, default=1 << 60, help="stop each client after this many operations")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--check", action="store_true")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return 1 if compare(*(json.loads(f.read_text()) for f in args.compare)) else 0
    workloads = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    if args.check:
        args.repeat = args.repeat or 5
        return 1 if compare(*run_sets(args, workloads, sides=2), either_way=True) else 0
    if args.repeat:
        (result,) = run_sets(args, workloads)
        for workload, metrics in result.items():
            for metric, values in metrics.items():
                q1, q2, q3 = quartiles(values)
                print(f"{workload:20s} {metric:28s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}")
        if args.out:
            args.out.write_text(json.dumps(result, indent=1))
        return 0
    if not args.workload:
        p.error("--workload is required (or --repeat/--check/--compare)")
    # Every temporary file the library makes on its own lands in the checkout too.
    tempfile.tempdir = str(harness.OUT)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # a kill from outside still runs the finally
    try:
        return run_once(args)
    finally:
        harness.stop_children()  # on every path out: no process of ours outlives this one


if __name__ == "__main__":
    sys.exit(main())
