"""Spill files live exactly as long as a committed map output.

A map stage that fails, or an attempt that loses a race, leaves outputs
nothing commits; each must go through the registry's drop path instead
of waiting for the worker's death or ``stop()`` to reap its file.
"""

from __future__ import annotations

import glob
import operator
import os
import time

import pytest

from repro.errors import TaskError
from repro.sql.session import Session
from tests.conftest import small_config


def _explode_on_split_3(split, rows):
    if split == 3:
        raise ValueError("map task 3 fails")
    return ((x % 7, x) for x in rows)


def _uncommitted_files(ctx, spill_dir) -> list[str]:
    committed = {
        status.path
        for entry in ctx.shuffle_manager.export_plan().values()
        for status in entry["statuses"].values()
    }
    return sorted(set(glob.glob(os.path.join(spill_dir, "*.bin"))) - committed)


def test_failed_map_stage_drops_its_spill_files(tmp_path):
    spill_dir = str(tmp_path)
    config = small_config(executors=2, cluster_spill_dir=spill_dir)
    with Session(config) as session:
        ctx = session.ctx
        pairs = ctx.parallelize(range(400), 4).map_partitions_with_index(
            _explode_on_split_3
        )
        with pytest.raises(TaskError):
            pairs.reduce_by_key(operator.add).collect()
        # Map tasks still running when the stage failed drop their
        # output as they finish; give them a bounded while.
        deadline = time.monotonic() + 10.0
        orphans = _uncommitted_files(ctx, spill_dir)
        while orphans and time.monotonic() < deadline:
            time.sleep(0.05)
            orphans = _uncommitted_files(ctx, spill_dir)
        assert orphans == [], f"uncommitted spill files outlived the job: {orphans}"
        # The session still works, and its shuffle commits normally.
        ok = ctx.parallelize(range(400), 4).map(lambda x: (x % 7, x))
        assert dict(ok.reduce_by_key(operator.add).collect()) == {
            k: sum(x for x in range(400) if x % 7 == k) for k in range(7)
        }
