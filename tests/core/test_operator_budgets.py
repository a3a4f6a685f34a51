"""Work budgets of the Figure 2 operators on an indexed table.

Timings on a shared host swing by tens of per cent; work counts do not.
Each repeated operator on the indexed ``knows`` table, and the 1 % id
range on the indexed ``message`` table (the zone-map path), costs
exactly the jobs and tasks pinned here, and its scan decoders hand out
exactly the rows the answer needs: every row for Scan and Projection,
the matching rows for Filter and ZoneRange. No row goes through the
interpreted ``RowCodec.decode``. A change that moves one of these
numbers says why.
"""

from __future__ import annotations

import pytest

from repro.config import Config
from repro.core import create_index, enable_indexing
from repro.core.rowcodec import RowCodec
from repro.snb import generate
from repro.snb import schema as S
from repro.snb.datagen import EPOCH_START_MS
from repro.sql.functions import col
from repro.sql.session import Session

DAY_MS = 24 * 3600 * 1000

#: operator -> (jobs, tasks) per repeated run.
BUDGETS = {
    "Scan": (1, 4),
    "Projection": (1, 4),
    "Filter": (1, 4),
    "ZoneRange": (1, 4),
}


@pytest.fixture(scope="module")
def world():
    session = Session(
        Config(
            executor_threads=2,
            shuffle_partitions=4,
            default_parallelism=4,
            broadcast_threshold=200,
            batch_size_bytes=64 * 1024,
        )
    )
    enable_indexing(session)
    dataset = generate(scale_factor=0.1, seed=7)
    knows = create_index(
        session.create_dataframe(dataset.knows, S.KNOWS_SCHEMA, validate=False),
        "person1_id",
    )
    message = create_index(
        session.create_dataframe(dataset.messages, S.MESSAGE_SCHEMA, validate=False),
        "id",
    )
    yield session, dataset, knows.to_df(), message.to_df()
    session.stop()


@pytest.fixture()
def decoded(monkeypatch):
    """Rows handed out by scan decoders, and interpreted row decodes."""
    counts = {"rows": 0, "interpreted": 0}
    region_decoder, decode = RowCodec.region_decoder, RowCodec.decode

    def counting_region_decoder(self, *args, **kwargs):
        inner = region_decoder(self, *args, **kwargs)

        def counted(*call):
            rows, base = inner(*call)
            counts["rows"] += len(rows)
            return rows, base

        return counted

    def counting_decode(self, *args, **kwargs):
        counts["interpreted"] += 1
        return decode(self, *args, **kwargs)

    monkeypatch.setattr(RowCodec, "region_decoder", counting_region_decoder)
    monkeypatch.setattr(RowCodec, "decode", counting_decode)
    return counts


def operations(dataset, kdf, mdf):
    """operator -> [(run, rows the answer needs)], three arguments each."""
    ids = sorted(m[0] for m in dataset.messages)
    span = max(1, len(ids) // 100)
    knows, messages = dataset.knows, dataset.messages
    ops = {"Scan": [], "Projection": [], "Filter": [], "ZoneRange": []}
    for i in range(3):
        cutoff = EPOCH_START_MS + (150 + 50 * i) * DAY_MS
        lo = ids[(i + 1) * len(ids) // 4]
        ops["Scan"].append((kdf.count, len(knows)))
        ops["Projection"].append((kdf.select("person2_id").count, len(knows)))
        ops["Filter"].append(
            (
                kdf.filter(col("creation_date") > cutoff).count,
                sum(1 for k in knows if k[2] > cutoff),
            )
        )
        ops["ZoneRange"].append(
            (
                mdf.filter((col("id") >= lo) & (col("id") < lo + span)).collect_tuples,
                sum(1 for m in messages if lo <= m[0] < lo + span),
            )
        )
    return ops


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_repeated_operator_work(world, decoded, name):
    session, dataset, kdf, mdf = world
    runs = operations(dataset, kdf, mdf)[name]
    runs[0][0]()  # the miss that builds the plan template and kernels
    metrics = session.ctx.scheduler.metrics
    for run, needed in runs:
        before = metrics.snapshot()
        decoded["rows"] = decoded["interpreted"] = 0
        answer = run()
        after = metrics.snapshot()
        spent = (after["jobs"] - before["jobs"], after["tasks"] - before["tasks"])
        assert spent == BUDGETS[name]
        assert (answer if isinstance(answer, int) else len(answer)) == needed
        assert decoded == {"rows": needed, "interpreted": 0}
