"""Task-dispatch codec: pickled task closures that actually pickle.

The scheduler's tasks are closures over RDD graphs (`map_task`,
`result_task`), and RDD graphs are full of lambdas — which the stock
pickler refuses by design. This module is a minimal by-value function
pickler (the cloudpickle idea, reduced to what this engine needs):

* module-level functions and classes still pickle **by reference**;
* lambdas and nested functions pickle **by value** — ``marshal``-ed
  code object, the subset of module globals the code actually names,
  defaults, and closure cells (recursively through nested code
  objects);
* driver-resident singletons substitute via ``persistent_id``:
  the :class:`~repro.engine.context.EngineContext` becomes the worker's
  process-local context, the driver's
  :class:`~repro.faults.FaultInjector` becomes the worker's no-op
  injector (fault draws happen on the driver, once per event, so a
  seeded run replays exactly), and heavy leaf data (partition
  snapshots, relations, broadcasts) becomes a shared-memory token
  resolved by the :class:`~repro.cluster.shm.WorkerShipCache`.

Anything else unpicklable raises — and the process backend falls back
to running that one task in-process, so exotic user closures degrade
instead of failing.
"""

from __future__ import annotations

import io
import marshal
import pickle
import struct
import types
from typing import Any

from repro.errors import FAIL_STOP
from repro.serialize import PICKLE_PROTOCOL


def _rebuild_cell(contents: Any) -> types.CellType:
    return types.CellType(contents)


def _rebuild_empty_cell() -> types.CellType:
    return types.CellType()


def _import_module(name: str) -> types.ModuleType:
    import importlib

    return importlib.import_module(name)


def _rebuild_function(
    code_bytes: bytes,
    global_names: dict[str, Any],
    name: str,
    defaults: tuple | None,
    kwdefaults: dict | None,
    closure: tuple | None,
    module: str,
    qualname: str,
) -> types.FunctionType:
    code = marshal.loads(code_bytes)
    global_names.setdefault("__builtins__", __builtins__)
    global_names.setdefault("__name__", module)
    fn = types.FunctionType(code, global_names, name, defaults, closure)
    fn.__kwdefaults__ = kwdefaults
    fn.__module__ = module
    fn.__qualname__ = qualname
    return fn


def _code_names(code: types.CodeType) -> set[str]:
    """Every global name a code object (or its nested lambdas) loads."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _resolves_by_reference(fn: types.FunctionType) -> bool:
    """True when ``pickle``'s normal import-by-qualname path would find
    this exact function object again (module-level defs)."""
    import sys

    module = sys.modules.get(fn.__module__ or "")
    if module is None:
        return False
    obj: Any = module
    for part in fn.__qualname__.split("."):
        if part == "<locals>":
            return False
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is fn


class TaskPickler(pickle.Pickler):
    """Driver-side pickler for one task envelope."""

    def __init__(self, file, ship_store):
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self._ship = ship_store

    # -- driver-singleton substitution ---------------------------------

    def persistent_id(self, obj: Any):  # noqa: C901 - type dispatch
        # Imported lazily: this module must stay importable from worker
        # processes before the engine package finishes initialising.
        from repro.core.partition import PartitionSnapshot
        from repro.engine.broadcast import Broadcast
        from repro.engine.context import EngineContext
        from repro.faults import FaultInjector
        from repro.sql.relation import BaseRelation

        if isinstance(obj, EngineContext):
            return ("ctx",)
        if isinstance(obj, FaultInjector):
            # Fault decisions are made at dispatch on the driver; the
            # worker's injector is inert so each event is drawn exactly
            # once.
            return ("injector",)
        if isinstance(obj, PartitionSnapshot):
            return ("ship", self._ship.token_for_snapshot(obj))
        if isinstance(obj, (BaseRelation, Broadcast)):
            return ("ship", self._ship.token_for_object(obj))
        return None

    # -- by-value functions --------------------------------------------

    def reducer_override(self, obj: Any):
        if isinstance(obj, types.FunctionType):
            if _resolves_by_reference(obj):
                return NotImplemented
            return self._reduce_function(obj)
        if isinstance(obj, types.CellType):
            try:
                return (_rebuild_cell, (obj.cell_contents,))
            except ValueError:
                return (_rebuild_empty_cell, ())
        if isinstance(obj, types.ModuleType):
            return (_import_module, (obj.__name__,))
        if isinstance(obj, struct.Struct):
            # Compiled row codecs close over Struct instances; they
            # rebuild exactly from their format string.
            return (struct.Struct, (obj.format,))
        return NotImplemented

    def _reduce_function(self, fn: types.FunctionType):
        code = fn.__code__
        wanted = _code_names(code)
        fn_globals = fn.__globals__
        global_names = {
            name: fn_globals[name] for name in wanted if name in fn_globals
        }
        return (
            _rebuild_function,
            (
                marshal.dumps(code),
                global_names,
                fn.__name__,
                fn.__defaults__,
                fn.__kwdefaults__,
                fn.__closure__,
                fn.__module__ or "repro.cluster.codec",
                fn.__qualname__,
            ),
        )


class TaskUnpickler(pickle.Unpickler):
    """Worker-side unpickler resolving driver tokens."""

    def __init__(self, file, worker_context):
        super().__init__(file)
        self._worker = worker_context

    def persistent_load(self, pid):
        kind = pid[0]
        if kind == "ctx":
            return self._worker
        if kind == "injector":
            from repro.faults import NULL_INJECTOR

            return NULL_INJECTOR
        if kind == "ship":
            return self._worker.ship_cache.load(pid[1])
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


class TaskCodec:
    """Driver-side envelope builder."""

    def __init__(self, ship_store) -> None:
        self._ship = ship_store

    def dumps_envelope(self, envelope: dict) -> bytes:
        buffer = io.BytesIO()
        TaskPickler(buffer, self._ship).dump(envelope)
        return buffer.getvalue()


def loads_envelope(data: bytes, worker_context) -> dict:
    return TaskUnpickler(io.BytesIO(data), worker_context).load()


def dumps_reply(status: str, payload: Any, generation: int = 0) -> bytes:
    """Worker → driver reply; falls back to a repr-only error when the
    payload itself refuses to pickle. ``generation`` stamps the reply
    with the worker's spawn generation so the dispatcher can fence a
    zombie's late answer."""
    try:
        return pickle.dumps((status, payload, generation), protocol=PICKLE_PROTOCOL)
    except FAIL_STOP:
        raise
    except Exception:  # noqa: BLE001 - any pickling failure
        from repro.errors import EngineError

        if status == "err":
            substitute: Any = EngineError(
                f"worker task failed with unpicklable exception: {payload!r}"
            )
        else:
            substitute = EngineError(
                f"worker task result was unpicklable: {type(payload).__name__}"
            )
        return pickle.dumps(("err", substitute, generation), protocol=PICKLE_PROTOCOL)


def loads_reply(data: bytes) -> tuple[str, Any, int]:
    return pickle.loads(data)
