"""Closed-loop driver, metric assembly, host stamp and leak checks.

One run = set-up (repeated, median reported) → untraced timed window →
deferred oracle re-check of a seeded 2 % sample → optionally the traced
repeat → post-window work (recovery), untraced. Everything a bound
applies to is measured with tracing off; the traced repeat only feeds
the per-layer table.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import tracer as tracing
from workloads import WORKLOADS, Workload, canon

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
clock = time.perf_counter

TRACE_OPS = 400  # the traced repeat covers this many operations ...
TRACE_SECONDS = 4.0  # ... or this long, whichever ends first
CHECK_FRACTION = 0.02
SETUPS = 3  # set-ups per untraced run; setup_s is their median


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of unsorted samples (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def host_stamp(seed: int) -> dict[str, Any]:
    try:
        commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "seed": seed, "loadavg_start": os.getloadavg()[0]}


def child_pids() -> list[int]:
    """Every live or unreaped child of this process, whoever started it
    (``/proc/<pid>/stat``: the parent is the second field after the name)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            if int(stat.read_text().rpartition(")")[2].split()[1]) == os.getpid():
                found.append(int(stat.parent.name))
        except (OSError, ValueError, IndexError):
            continue  # gone between the listing and the read
    return found


def stop_children() -> list[int]:
    """Stop and wait for every process this one started; returns the
    pids that had to be killed. ``multiprocessing`` starts a resource
    tracker beside the first shared-memory segment and never waits for
    it: it ends only when this process closes its pipe, so after a
    plain exit it would still be running, with nobody left to reap it."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()  # closes the pipe and waits
    except (AttributeError, OSError):
        pass  # no _stop() on this Python: the sweep below ends it
    killed = child_pids()
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass  # ended, or reaped by its owner, in the meantime
    return killed


def leaks(tmp: Path) -> list[str]:
    """Anything a workload left behind; a leak fails the run outright."""
    found = [f"child process {pid}" for pid in stop_children()]
    found += [f"shm segment {p}" for p in Path("/dev/shm").glob(f"repro_{os.getpid()}_*")]
    found += [f"temp directory {p}" for p in tmp.iterdir()]  # spill and durability directories
    return found


class Samples:
    """Per-client records of one phase: (class, start, seconds)."""

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float]] = []
        self.errors: list[str] = []
        self.checks: list[tuple[Any, Any, Any]] = []  # (op, result, oracle sizes)


def _client(wl: Workload, ops: list, deadline: float, max_ops: int, out: Samples,
            rng: random.Random, tracer: tracing.Tracer | None, first_op_id: int) -> None:
    i = 0
    if not wl.cyclic:  # appended rows must not be appended twice
        max_ops = min(max_ops, len(ops))
    while i < max_ops and clock() < deadline:
        op = ops[i % len(ops)]
        span = tracer.push("op:" + op[0], op=first_op_id + i) if tracer else None
        start = clock()
        try:
            result = wl.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out.errors.append(f"{op[0]}{op[1]!r}: {exc!r}")
            result = exc
        elapsed = clock() - start
        if span is not None:
            tracer.pop(span)
        out.records.append((op[0], start, elapsed))
        if not isinstance(result, Exception) and rng.random() < CHECK_FRACTION:
            out.checks.append((op, result, wl.sizes()))
        i += 1


def run_phase(wl: Workload, clients: int, seconds: float, max_ops: int, seed: int,
              tracer: tracing.Tracer | None = None) -> tuple[list[Samples], float]:
    """Closed loop: each client sends its next operation when the
    previous one returned. Returns per-client samples and wall seconds."""
    samples = [Samples() for _ in range(clients)]
    start = clock()
    threads = [
        threading.Thread(target=_client, name=f"client-{c}", args=(
            wl, wl.ops[c], start + seconds, max_ops, samples[c],
            random.Random(f"{seed}:check:{c}"), tracer, 1 + c * 1_000_000))
        for c in range(clients)
    ]
    if clients == 1:
        threads[0].run()  # same thread: no hand-off in the single-client loop
    else:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return samples, clock() - start


def failures(wl: Workload, samples: list[Samples]) -> list[str]:
    """Errors raised plus sampled results the oracle disagrees with."""
    wrong = [f"{op[0]}{op[1]!r}: result differs from the oracle" for s in samples
             for op, got, sizes in s.checks if canon(got) != canon(wl.expect(op, sizes))]
    return [e for s in samples for e in s.errors] + wrong


def read_ms(wl: Workload, samples: list[Samples]) -> list[float]:
    """Latencies of the read operations of a phase, in start order."""
    records = sorted((r for s in samples for r in s.records), key=lambda r: r[1])
    return [sec * 1e3 for cls, _t, sec in records if cls not in wl.write_classes]


def end_to_end(wl: Workload, samples: list[Samples], wall: float, setup_s: float) -> dict[str, float]:
    reads = read_ms(wl, samples)
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(len(s.records) for s in samples) / wall,
        "read_p50_ms": percentile(reads, 0.50),
        "read_p95_ms": percentile(reads, 0.95),
    }


def rss_peak_mb(with_children: bool) -> float:
    """Peak resident set of this process, plus the largest reaped child
    on the cluster workload (call after the workers were stopped)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def run_level(wl: Workload, samples: list[Samples], counters: dict[str, float]) -> dict[str, float]:
    """Metrics of the untraced window that are not on every workload."""
    by_class: dict[str, list[float]] = defaultdict(list)
    for s in samples:
        for cls, _t, sec in s.records:
            by_class[cls].append(sec * 1e3)
    n = max(1, sum(map(len, by_class.values())))
    out = {f"op.{cls}.p50_ms": percentile(v, 0.5) for cls, v in by_class.items()}
    reads = read_ms(wl, samples)
    if len(reads) >= 1000:  # a p99 needs ten samples beyond it
        out["read_p99_ms"] = percentile(reads, 0.99)
    quarter = max(1, len(reads) // 4)
    out["run.drift_ratio"] = (statistics.median(reads[-quarter:]) / statistics.median(reads[:quarter])
                              if reads else 0.0)
    out["run.samples"] = float(n)
    appends = by_class.get("Append", [])
    if appends:
        out["append_p50_ms"] = percentile(appends, 0.5)
        out["append_p99_ms"] = percentile(appends, 0.99)
        out["append_rows_per_s"] = wl.acked_rows / (sum(appends) / 1e3)
    c = counters
    lookups = c["sched.plan_cache_hits"] + c["sched.plan_cache_misses"]
    out["sql.plan_cache.hit_rate"] = c["sched.plan_cache_hits"] / lookups if lookups else 0.0
    out["sql.plan_cache.full_hit_rate"] = c["sched.plan_cache_full_hits"] / lookups if lookups else 0.0
    out["engine.scheduler.jobs_per_op"] = c["sched.jobs"] / n
    out["engine.scheduler.tasks_per_op"] = c["sched.tasks"] / n
    out["engine.scheduler.retries"] = c["sched.task_retries"]
    out["engine.shuffle.records_per_op"] = c["shuffle.records"] / n
    cache = c["cache.hits"] + c["cache.misses"]
    out["engine.cache.hit_rate"] = c["cache.hits"] / cache if cache else 0.0
    out["codegen.compiles"], out["codegen.fallbacks"] = c["codegen.compiled"], c["codegen.fallbacks"]
    out["stats.batches_pruned_per_op"] = c["prune.batches_pruned"] / n
    out["stats.partitions_pruned_per_op"] = c["prune.partitions_pruned"] / n
    out["stats.index_rejected"] = c["prune.index_rejected"]
    if "checkpoints" in c:
        out["durability.checkpoint.count"] = c["checkpoints"]
    if "admit.submitted" in c:
        out["serving.admission.queued_frac"] = (
            (c["admit.submitted"] - c["admit.admitted"]) / c["admit.submitted"] if c["admit.submitted"] else 0.0)
        out["serving.admission.rejected"] = c["serve.rejected"]
    if "backend.tasks_dispatched" in c:
        out["cluster.backend.tasks_per_op"] = c["backend.tasks_dispatched"] / n
        out["cluster.backend.respawns"] = c["backend.workers_lost"]
        out["cluster.backend.timeouts"] = c["backend.rpc_timeouts"] + c["sched.cluster_timeouts"]
        out["cluster.shuffle.spill_bytes_per_op"] = c["spill.bytes"] / n
    return out


def per_layer(tr: tracing.Tracer, self_s: dict[int, float], n_ops: int, untraced_p50_ms: float,
              write_classes: frozenset[str]) -> dict[str, float]:
    """The traced repeat boiled down to per-operation layer numbers."""
    spans, n = tr.spans, max(1, n_ops)
    layer_self: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    units: dict[str, int] = defaultdict(int)
    for s in spans:
        layer_self[s.name.split(":")[0]] += self_s[s.id]
        busy[s.name] += s.busy
        calls[s.name] += 1
        units[s.name] += s.units
    ops = [s for s in spans if s.name.startswith("op:")]
    op_s = sum(s.busy for s in ops)
    tot = tr.totals

    def per_call(name: str, scale: float) -> float:
        return tot[name][1] * scale / tot[name][0] if tot[name][0] else 0.0

    def per_unit(name: str, scale: float) -> float:
        return tot[name][1] * scale / tot[name][2] if tot[name][2] else 0.0

    def each(name: str, scale: float = 1e3) -> float:
        return busy[name] * scale / calls[name] if calls[name] else 0.0

    out = {f"{layer}.self_ms_per_op": layer_self[layer] * 1e3 / n for layer in (
        "sql.parser", "sql.analysis", "sql.optimizer", "core.rules", "sql.planner", "sql.physical",
        "serving.runtime")}
    out["sql.parser.calls_per_op"] = calls["sql.parser:parse_query"] / n
    out["sql.analysis.calls_per_op"] = calls["sql.analysis:analyze"] / n
    out["engine.scheduler.run_job_ms_per_op"] = busy["engine.scheduler:run_job"] * 1e3 / n
    out["engine.shuffle.write_ms_per_op"] = layer_self["engine.shuffle"] * 1e3 / n
    out["engine.shuffle.fetch_ms_per_op"] = busy["engine.shuffle:fetch"] * 1e3 / n
    out["core.partition.append_many_ms_per_batch"] = each("core.partition:append_many")
    out["core.partition.lookup_ms_per_op"] = busy["core.partition:lookup"] * 1e3 / n
    out["core.partition.scan_ms_per_op"] = tot["core.rowcodec:scan_decode"][1] * 1e3 / n
    decoded = (tot["core.rowcodec:scan_decode"][2] + tot["core.rowcodec:decode"][2]
               + units["core.partition:lookup"])
    decode_s = sum(tot[f"core.rowcodec:{k}"][1] for k in ("scan_decode", "chain_decode", "decode"))
    out["core.rowcodec.encode_us_per_row"] = per_unit("core.rowcodec:encode", 1e6)
    out["core.rowcodec.decode_us_per_row"] = decode_s * 1e6 / decoded if decoded else 0.0
    out["core.rowcodec.rows_decoded_per_op"] = decoded / n
    for what in ("insert", "lookup", "snapshot"):
        out[f"ctrie.{what}_us_per_call"] = per_call(f"ctrie:{what}", 1e6)
    out["ctrie.lookups_per_op"] = tot["ctrie:lookup"][0] / n
    out["index.bitmap.record_us_per_row"] = per_call("index.bitmap:record", 1e6)
    out["index.bitmap.probe_ms_per_op"] = tot["index.bitmap:probe"][1] * 1e3 / n
    out["core.mvcc.capture_us_per_call"] = each("core.mvcc:capture", 1e6)
    out["durability.wal.append_ms_per_batch"] = each("durability.wal:append_rows")
    checkpoints = [s for s in spans if s.name == "durability.checkpoint:checkpoint"]
    out["durability.checkpoint.ms_each"] = each("durability.checkpoint:checkpoint")
    out["durability.checkpoint.max_append_stall_ms"] = max(
        (o.busy * 1e3 for o in ops if o.name == "op:Append"
         and any(c.t0 < o.t1 and o.t0 < c.t1 for c in checkpoints)), default=0.0)
    out["serving.admission.admit_ms_per_op"] = busy["serving.admission:admit"] * 1e3 / n
    out["cluster.backend.run_task_ms_per_task"] = each("cluster.backend:run_task")
    out["cluster.codec.dumps_ms_per_task"] = each("cluster.codec:dumps")
    out["cluster.codec.bytes_per_task"] = (
        units["cluster.codec:dumps"] / calls["cluster.codec:dumps"] if calls["cluster.codec:dumps"] else 0.0)
    out["cluster.shuffle.fetch_ms_per_op"] = busy["cluster.shuffle:fetch"] * 1e3 / n
    out["run.unattributed_frac"] = layer_self["op"] / op_s if op_s else 0.0
    traced_p50 = percentile([s.busy * 1e3 for s in ops if s.name[3:] not in write_classes], 0.5)
    out["run.trace_overhead_frac"] = traced_p50 / untraced_p50_ms - 1.0 if untraced_p50_ms else 0.0
    return out


def share_table(tr: tracing.Tracer, self_s: dict[int, float]) -> dict[str, float]:
    """Share of traced operation time per layer (self time, exclusive),
    with per-row totals counted under their own layer."""
    layers: dict[str, float] = defaultdict(float)
    for s in tr.spans:
        if s.op:
            layers[s.name.split(":")[0]] += self_s[s.id]
    for name, (_calls, seconds, _units) in tr.totals.items():
        layers[name.split(":")[0]] += seconds
    layers["unattributed"] = layers.pop("op", 0.0)  # op time outside every span
    total = sum(layers.values()) or 1.0
    return {layer: seconds / total for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
            if seconds / total >= 0.0005}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 max_ops: int = 1 << 60) -> dict[str, Any]:
    """One full run; returns the result document (see ``run.py``)."""
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    stamp = host_stamp(seed)
    if stamp["loadavg_start"] > (os.cpu_count() or 1):
        print(f"warning: load average {stamp['loadavg_start']:.2f} exceeds nproc; timings will be noisy",
              file=sys.stderr)
    setup_times = []
    wl = None
    failed: list[str] = []
    attempted = 0
    extra: dict[str, float] = {}
    share: dict[str, float] = {}
    tr = None
    try:
        for _ in range(1 if trace else SETUPS):
            if wl is not None:
                wl.close()
                wl = None
                gc.collect()  # the previous set-up's tables must not count toward peak RSS
            wl = WORKLOADS[name](seed, scale, tmp)
            start = clock()
            wl.setup()
            setup_times.append(clock() - start)
        rate = {}
        for phase, clients, part in wl.phases:
            before = wl.counters()
            samples, wall = run_phase(wl, clients, seconds * part, max_ops, seed)
            failed += failures(wl, samples)
            attempted += sum(len(s.records) for s in samples)
            rate[phase] = sum(len(s.records) for s in samples) / wall
        after = wl.counters()
        e2e = end_to_end(wl, samples, wall, statistics.median(setup_times))
        if "A" in rate:
            extra["serving.runtime.scaling_2c_over_1c"] = rate["B"] / rate["A"]
        delta = {k: after[k] - before[k] for k in after}
        delta["shuffle.records"] = after["shuffle.records"]  # live registry size, not cumulative
        wl.window_done(delta)
        extra.update(run_level(wl, samples, delta))
        if trace:
            tr = tracing.Tracer(wrap_tasks=not wl.config.get("executors"))
            for c in range(len(wl.ops)):  # continue each client's sequence where the window stopped
                done = len(samples[c].records) if c < len(samples) else 0
                if wl.cyclic:
                    done %= len(wl.ops[c])
                wl.ops[c] = wl.ops[c][done:] + (wl.ops[c][:done] if wl.cyclic else [])
            clients = wl.phases[-1][1]
            tr.install()
            try:
                traced, _wall = run_phase(wl, clients, min(TRACE_SECONDS, seconds), TRACE_OPS // clients, seed, tr)
            finally:
                tr.uninstall()
            failed += failures(wl, traced)
            attempted += sum(len(s.records) for s in traced)
            # Overhead = traced median against the untraced window's last
            # quarter: the nearest state, since several workloads drift.
            reads = read_ms(wl, samples)
            tail_p50 = percentile(reads[-max(1, len(reads) // 4):], 0.5)
            self_s = tracing.self_times(tr.spans)
            extra.update(per_layer(tr, self_s, sum(len(s.records) for s in traced), tail_p50, wl.write_classes))
            share = share_table(tr, self_s)
            if wl.shape is not None:
                extra.update(wl.shape())
        fin = wl.finish()  # after uninstall: recover_s is held to a bound
        failed += ["acknowledged row missing after recovery"] * int(fin.pop("missing_rows", 0))
        extra.update(fin)
        mem = wl.memory_stats()
        if mem.get("rows"):
            extra["core.partition.mem_bytes_per_row"] = (mem["allocated_bytes"] + mem["index_bytes"]) / mem["rows"]
        segments = wl.shm_segments()
        extra["cluster.shm.segments_shipped"] = float(len(segments))
        extra["cluster.shm.bytes_shipped"] = float(sum(p.stat().st_size for p in segments))
    finally:
        if wl is not None:
            wl.close()
    leaked = leaks(tmp)
    if not leaked:
        tmp.rmdir()
    e2e["rss_peak_mb"] = rss_peak_mb(bool(wl.config.get("executors")))
    extra["cluster.shm.leaked_segments"] = float(len(wl.shm_segments()))
    extra["failed_frac"] = len(failed) / max(1, attempted)
    preconditions = wl.preconditions if wl.full else {}
    stamp.update(loadavg_end=os.getloadavg()[0], workload=name, scale=scale, seconds=seconds,
                 ops=attempted, setup_runs=setup_times)
    doc = {"host": stamp, "correct": not failed and all(preconditions.values()) and not leaked,
           "attempted": attempted, "failed": len(failed), "failures": failed[:20],
           "preconditions": preconditions, "leaks": leaked,
           "end_to_end": e2e, "per_layer": extra, "share_of_op_time": share}
    if tr is not None:
        (OUT / f"trace-{name}.json").write_text(json.dumps({
            **doc, "span_fields": ["id", "parent", "op", "layer:what", "t0", "t1", "busy_s", "thread"],
            "note": "op 0 is background work no operation caused",
            "totals": {k: {"calls": v[0], "seconds": v[1], "units": v[2]} for k, v in tr.totals.items()},
            "spans": [s.as_list() for s in tr.spans]}))
    return doc
