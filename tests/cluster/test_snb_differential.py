"""SNB differential: every short-read query bit-identical across
in-process and multi-process backends, on both storage paths."""

from __future__ import annotations

import pytest

from repro import codegen
from repro.config import Config
from repro.core import enable_indexing
from repro.snb import ALL_QUERIES, generate, load_indexed, load_vanilla, run_query
from repro.sql import expressions as E
from repro.sql.session import Session
from repro.sql.types import LongType


@pytest.fixture(scope="module")
def dataset():
    return generate(scale_factor=0.15, seed=11)


def _session(executors: int) -> Session:
    session = Session(
        Config(
            executors=executors,
            executor_threads=2,
            shuffle_partitions=4,
            default_parallelism=2,
            batch_size_bytes=256 * 1024,
        )
    )
    enable_indexing(session)
    return session


def _params(dataset, kind: str) -> list:
    ids = dataset.person_ids() if kind == "person" else dataset.message_ids()
    return ids[:: max(1, len(ids) // 2)][:2]


KERNEL_ROWS = [(i, f"n{i}") for i in range(-50, 200)] + [(None, None)]


def _template_kernels() -> dict:
    """Fused kernels of one shape: they share a code object, so the
    literals exist only in each function's ``__defaults__``."""
    ref = E.BoundReference(0, LongType(), "id")
    kernels = {
        bound: codegen.compile_filter_project_kernel(
            E.GreaterThan(ref, E.Literal(bound)), [E.Add(ref, E.Literal(bound * 7))]
        )
        for bound in (3, 150, -(2**70))
    }
    assert len({k.__code__ for k in kernels.values()}) == 1
    assert kernels[150].__defaults__ == (150, 1050)
    return kernels


def _run_all(session, dataset) -> dict:
    vanilla = load_vanilla(session, dataset)
    indexed = load_indexed(session, dataset)
    results: dict = {}
    for name, (_fn, kind) in ALL_QUERIES.items():
        for param in _params(dataset, kind):
            results[("vanilla", name, param)] = sorted(
                map(tuple, run_query(vanilla, name, param))
            )
            results[("indexed", name, param)] = sorted(
                map(tuple, run_query(indexed, name, param))
            )
    return results


@pytest.fixture(scope="module")
def local_results(dataset):
    session = _session(0)
    try:
        return _run_all(session, dataset)
    finally:
        session.stop()


@pytest.mark.parametrize("executors", [2, 4])
def test_snb_bit_identical(dataset, local_results, executors):
    session = _session(executors)
    kernels = _template_kernels()
    try:
        actual = _run_all(session, dataset)
        before = session.ctx.backend.stats()
        # The by-value function reducer must ship argdefs: a worker that
        # rebuilt the bare code object could not even call the kernel.
        shipped = {
            bound: session.ctx.parallelize(KERNEL_ROWS, 4).map_partitions(kernel).collect()
            for bound, kernel in kernels.items()
        }
        stats = session.ctx.backend.stats()
    finally:
        session.stop()
    assert actual == local_results
    assert shipped == {bound: kernel(KERNEL_ROWS) for bound, kernel in kernels.items()}
    assert shipped[150] == [(i + 1050,) for i in range(151, 200)]
    assert stats["workers_lost"] == 0
    assert stats["tasks_dispatched"] >= before["tasks_dispatched"] + 12
    assert stats["codec_fallbacks"] == before["codec_fallbacks"]
