"""Unit tests for the task codec and the shared-memory ship store."""

from __future__ import annotations

import struct
import threading

import pytest

from repro.cluster.codec import TaskCodec, dumps_reply, loads_envelope, loads_reply
from repro.cluster.shm import DriverShipStore, WorkerShipCache
from repro.core import create_index
from repro.errors import EngineError

MODULE_GLOBAL = 17


def module_level_helper(x):
    return x + MODULE_GLOBAL


class _FakeWorker:
    """Just the surface TaskUnpickler.persistent_load resolves."""

    def __init__(self) -> None:
        self.ship_cache = WorkerShipCache()


@pytest.fixture()
def ship():
    store = DriverShipStore()
    yield store
    store.close()


def roundtrip(ship, payload):
    worker = _FakeWorker()
    try:
        return loads_envelope(TaskCodec(ship).dumps_envelope(payload), worker)
    finally:
        worker.ship_cache.close()


def test_lambda_with_closure_and_globals(ship):
    offset = 5
    fn = lambda x: module_level_helper(x) + offset + MODULE_GLOBAL  # noqa: E731
    out = roundtrip(ship, {"fn": fn})
    assert out["fn"](1) == (1 + 17) + 5 + 17


def test_nested_function_with_defaults(ship):
    def make(base):
        def inner(x, scale=3, *, bias=base):
            return x * scale + bias

        return inner

    out = roundtrip(ship, {"fn": make(100)})
    assert out["fn"](2) == 106
    assert out["fn"](2, scale=1, bias=0) == 2


def test_module_level_function_by_reference(ship):
    out = roundtrip(ship, {"fn": module_level_helper})
    assert out["fn"] is module_level_helper


def test_struct_objects_roundtrip(ship):
    packer = struct.Struct("<qd")

    def pack(row, _s=packer):
        return _s.pack(*row)

    out = roundtrip(ship, {"fn": pack})
    assert out["fn"]((7, 2.5)) == packer.pack(7, 2.5)


def test_reply_falls_back_on_unpicklable_payload():
    status, payload, generation = loads_reply(dumps_reply("ok", threading.Lock(), 3))
    assert status == "err"
    assert isinstance(payload, EngineError)
    assert "unpicklable" in str(payload)
    assert generation == 3  # the fencing stamp survives too


def test_reply_ok_roundtrip():
    status, payload, generation = loads_reply(dumps_reply("ok", [1, 2, 3], 2))
    assert (status, payload, generation) == ("ok", [1, 2, 3], 2)


def test_ship_store_publishes_once(ship):
    from repro.engine.broadcast import Broadcast

    value = Broadcast({"a": 1})
    token_a = ship.token_for_object(value)
    token_b = ship.token_for_object(value)
    assert token_a == token_b

    cache = WorkerShipCache()
    try:
        loaded = cache.load(token_a)
        assert loaded.value == {"a": 1}
        assert cache.load(token_a) is loaded  # cached, one attach
    finally:
        cache.close()


def test_non_durable_snapshot_still_ships_shm(ship, indexed_session):
    """A partition snapshot crosses the process boundary as a segment."""
    df = indexed_session.create_dataframe(
        [(i, f"v{i}") for i in range(10)], [("id", "long"), ("name", "string")]
    )
    snap = next(
        snap
        for snap in (p.snapshot() for p in create_index(df, "id").store.partitions)
        if snap.row_count
    )
    out = roundtrip(ship, {"snap": snap})
    assert out["snap"].row_count == snap.row_count
    assert len(ship._segments) > 0


def test_unpicklable_closure_raises_for_fallback(ship):
    """Closures over live locks must *fail* to encode — the backend's
    local-execution fallback (mutating ingest tasks) depends on it."""
    lock = threading.Lock()

    def guarded(x, _lock=lock):
        with _lock:
            return x

    codec = TaskCodec(ship)
    with pytest.raises(Exception):
        codec.dumps_envelope({"fn": guarded})
