"""Spans around each layer's public functions, recorded from here.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install`
swaps the public callables listed in :data:`SPANS` / :data:`TOTALS` for
timing wrappers and :meth:`Tracer.uninstall` puts the originals back.

A *span* is one call (id, parent, op, layer:what, start, end, thread);
spans of one benchmark operation share its op id, and op 0 is work no
operation caused (the checkpointer thread). Per-row functions are far
too hot for a span each, so they only get a call count and a total
(``TOTALS``); their time is subtracted from the enclosing span so a
layer's *self time* stays exclusive.

Self time = busy time − same-thread children − the union of
other-thread children (pool tasks under ``run_job`` overlap each
other) − per-row totals recorded inside the span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

clock = time.perf_counter

#: (module, class or None, attribute, "layer:what") — one span per call.
SPANS = [
    ("repro.sql.parser", None, "parse_query", "sql.parser:parse_query"),
    ("repro.sql.parser.parser", None, "parse_query", "sql.parser:parse_query"),
    ("repro.sql.analysis", "Analyzer", "analyze", "sql.analysis:analyze"),
    ("repro.sql.session", "Session", "optimize_plan", "sql.optimizer:optimize_plan"),
    ("repro.sql.optimizer", "Optimizer", "run_extensions", "core.rules:run_extensions"),
    ("repro.sql.planner", "Planner", "plan", "sql.planner:plan"),
    ("repro.engine.rdd", "RDD", "collect", "sql.physical:collect"),
    ("repro.engine.rdd", "RDD", "count", "sql.physical:collect"),
    ("repro.engine.rdd", "RDD", "take", "sql.physical:collect"),
    ("repro.engine.shuffle", "ShuffleManager", "fetch", "engine.shuffle:fetch"),
    ("repro.cluster.backend", "LocalBackend", "run_task", "engine.scheduler:task"),
    ("repro.core.partition", "IndexedPartition", "append_many", "core.partition:append_many"),
    ("repro.core.partition", "PartitionSnapshot", "lookup_rows", "core.partition:lookup"),
    ("repro.core.mvcc", "VersionedStore", "capture", "core.mvcc:capture"),
    ("repro.durability.wal", "WALWriter", "append_rows", "durability.wal:append_rows"),
    ("repro.durability.checkpoint", "DurableStore", "checkpoint", "durability.checkpoint:checkpoint"),
    ("repro.serving.admission", "AdmissionController", "admit", "serving.admission:admit"),
    ("repro.serving.runtime", "ServingRuntime", "execute", "serving.runtime:execute"),
    ("repro.cluster.backend", "ProcessBackend", "run_task", "cluster.backend:run_task"),
    ("repro.cluster.codec", "TaskCodec", "dumps_envelope", "cluster.codec:dumps"),
    ("repro.cluster.shuffle", "ClusterShuffleManager", "fetch", "cluster.shuffle:fetch"),
]

#: Spans that also count what one call handled: ``units(result, args)``.
SPAN_UNITS = {
    "cluster.codec:dumps": lambda out, args: len(out),  # bytes
    "core.partition:lookup": lambda out, args: len(out),  # rows decoded
    "core.partition:append_many": lambda out, args: len(args[1]),  # rows
    "durability.wal:append_rows": lambda out, args: sum(map(len, args[1])),  # bytes
}

#: (module, class, attribute, "layer:what") — call count + total only.
TOTALS = [
    ("repro.core.rowcodec", "RowCodec", "encode", "core.rowcodec:encode"),
    ("repro.core.rowcodec", "RowCodec", "decode", "core.rowcodec:decode"),
    ("repro.ctrie.ctrie", "CTrie", "insert", "ctrie:insert"),
    ("repro.ctrie.ctrie", "CTrie", "lookup", "ctrie:lookup"),
    ("repro.ctrie.ctrie", "CTrie", "snapshot", "ctrie:snapshot"),
    ("repro.ctrie.ctrie", "CTrie", "readonly_snapshot", "ctrie:snapshot"),
    ("repro.index.bitmap", "PartitionBitmapIndex", "record", "index.bitmap:record"),
    ("repro.index.bitmap", "BitmapColumnView", "eval_atom", "index.bitmap:probe"),
]


class Span:
    __slots__ = ("id", "parent", "op", "name", "t0", "t1", "busy", "inner", "thread", "units")

    def __init__(self, id: int, parent: int, op: int, name: str, t0: float):
        self.id, self.parent, self.op, self.name, self.t0 = id, parent, op, name, t0
        self.t1 = t0
        self.busy = 0.0  # seconds inside the call (== t1 - t0 except for pulls)
        self.inner = 0.0  # seconds of TOTALS calls made directly inside
        self.thread = threading.get_ident()
        self.units = 0

    def as_list(self) -> list:
        return [self.id, self.parent, self.op, self.name,
                round(self.t0, 7), round(self.t1, 7), round(self.busy, 7), self.thread]


class Tracer:
    def __init__(self, wrap_tasks: bool = True):
        #: False on the cluster backend: a wrapped result function is a
        #: closure over this tracer and must not be pickled to a worker.
        self.wrap_tasks = wrap_tasks
        self.spans: list[Span] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])  # calls, s, units
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._jobs: dict[Any, Span] = {}  # served-query key → its run_job span
        self._undo: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def push(self, name: str, op: int | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread().name.startswith("repro-executor"):
            # Pool threads inherit nothing; the job lock admits one job
            # at a time per served query, so the submitting run_job span
            # is found by the query the scheduler re-activated here.
            parent = self._jobs.get(self._query_key())
        else:
            parent = None
        span = Span(
            next(self._ids),
            parent.id if parent else 0,
            op if op is not None else (parent.op if parent else 0),
            name,
            clock(),
        )
        stack.append(span)
        return span

    def _query_key(self) -> Any:
        query = self._current_query()
        return None if query is None else query.query_id

    def pop(self, span: Span) -> None:
        span.t1 = clock()
        if not span.busy:
            span.busy = span.t1 - span.t0
        self._tls.stack.pop()
        self.spans.append(span)

    def _add_total(self, name: str, seconds: float, units: int) -> None:
        with self._lock:
            slot = self.totals[name]
            slot[0] += 1
            slot[1] += seconds
            slot[2] += units
        stack = self._stack()
        if stack:
            stack[-1].inner += seconds

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn: Callable, name: str, units: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self.push(name)
            try:
                out = fn(*args, **kwargs)
                if units is not None:
                    span.units = units(out, args)
                return out
            finally:
                self.pop(span)

        return wrapper

    def _total_wrapper(self, fn: Callable, name: str, units: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                elapsed = clock() - start
                self._add_total(name, elapsed, units(out, args) if units and out is not None else 1)

        return wrapper

    def _decoder_factory(self, factory: Callable, name: str, units: Callable | None) -> Callable:
        """``RowCodec.*_decoder`` return compiled callables (the
        ``codegen.decoders`` entry points): time what they return."""

        @functools.wraps(factory)
        def wrapper(*args: Any, **kwargs: Any) -> Callable:
            return self._total_wrapper(factory(*args, **kwargs), name, units)

        return wrapper

    def _run_job(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def run_job(scheduler: Any, rdd: Any, func: Callable, partitions: Any = None) -> Any:
            span = tracer.push("engine.scheduler:run_job")
            key = tracer._query_key()
            outer = tracer._jobs.get(key)
            tracer._jobs[key] = span
            if tracer.wrap_tasks:
                # The result function pulls the whole kernel pipeline.
                func = tracer._span_wrapper(func, "sql.physical:kernel")
            try:
                return fn(scheduler, rdd, func, partitions)
            finally:
                if outer is None:
                    tracer._jobs.pop(key, None)
                else:
                    tracer._jobs[key] = outer
                tracer.pop(span)

        return run_job

    def _write_map_output(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def write_map_output(manager: Any, dep: Any, map_index: int, records: Iterable) -> Any:
            span = tracer.push("engine.shuffle:write")
            try:
                return fn(manager, dep, map_index, tracer._pulled(records))
            finally:
                tracer.pop(span)

        return write_map_output

    def _pulled(self, records: Iterable) -> Iterator:
        """A map task's upstream kernels run lazily inside the shuffle
        writer's loop. Time every pull so that work lands in one
        ``sql.physical:kernel`` span (busy = time inside ``next``)
        instead of inflating ``engine.shuffle:write``."""
        kernel = self.push("sql.physical:kernel")
        stack = self._tls.stack
        stack.pop()
        source = iter(records)
        busy = 0.0
        try:
            while True:
                stack.append(kernel)
                start = clock()
                try:
                    item = next(source)
                except StopIteration:
                    return
                finally:
                    busy += clock() - start
                    stack.pop()
                yield item
        finally:
            kernel.t1 = clock()
            kernel.busy = busy
            self.spans.append(kernel)

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        def owner_of(module: str, cls: str | None) -> Any:
            mod = importlib.import_module(module)
            return getattr(mod, cls) if cls else mod

        self._current_query = owner_of("repro.serving.context", None).current_query
        for module, cls, attr, name in SPANS:
            self._patch(owner_of(module, cls), attr,
                        lambda fn, n=name: self._span_wrapper(fn, n, SPAN_UNITS.get(n)))
        for module, cls, attr, name in TOTALS:
            self._patch(owner_of(module, cls), attr,
                        lambda fn, n=name: self._total_wrapper(fn, n))
        codec = owner_of("repro.core.rowcodec", "RowCodec")
        # Region and batch decoders return the rows they decoded (the
        # scan path). The chain walker appends into lookup_rows' list,
        # so its rows are counted on the core.partition:lookup span.
        self._patch(codec, "region_decoder", lambda fn: self._decoder_factory(
            fn, "core.rowcodec:scan_decode", lambda out, args: len(out[0])))
        self._patch(codec, "batch_decoder", lambda fn: self._decoder_factory(
            fn, "core.rowcodec:scan_decode", lambda out, args: len(out)))
        self._patch(codec, "chain_decoder", lambda fn: self._decoder_factory(
            fn, "core.rowcodec:chain_decode", None))
        self._patch(owner_of("repro.engine.scheduler", "DAGScheduler"), "run_job", self._run_job)
        self._patch(owner_of("repro.engine.shuffle", "ShuffleManager"), "write_map_output",
                    self._write_map_output)
        # Every concrete operator overrides execute(); wrap each one
        # (the indexed operators of repro.core.physical included).
        importlib.import_module("repro.core.physical")
        pending = list(owner_of("repro.sql.physical", "PhysicalPlan").__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "execute" in cls.__dict__:
                self._patch(cls, "execute", lambda fn: self._span_wrapper(fn, "sql.physical:execute"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- analysis ----------------------------------------------------------------


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out = {}
    for span in spans:
        same = sum(c.busy for c in children[span.id] if c.thread == span.thread)
        other = _union_seconds(
            [(max(c.t0, span.t0), min(c.t1, span.t1))
             for c in children[span.id] if c.thread != span.thread]
        )
        out[span.id] = max(0.0, span.busy - same - other - span.inner)
    return out
