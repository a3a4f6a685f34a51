"""Compiled bulk decoders ≡ the interpreted ``RowCodec`` paths, plus
the codec registry and capacity validation that ride along."""

from __future__ import annotations

import random

import pytest

from repro.core.partition import IndexedPartition
from repro.core.pointers import NULL_POINTER, PointerLayout
from repro import codegen
from repro.core.rowbatch import HEADER_SIZE
from repro.core.rowcodec import RowCodec, codec_for
from repro.errors import CapacityError, CodegenError
from repro.sql import expressions as E
from repro.sql.types import (
    BooleanType,
    DoubleType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
)

MIXED_SCHEMA = StructType(
    [
        StructField("id", LongType()),
        StructField("score", DoubleType()),
        StructField("name", StringType()),
        StructField("flag", BooleanType()),
    ]
)

FIXED_SCHEMA = StructType(
    [StructField("a", LongType()), StructField("b", DoubleType())]
)


def mixed_rows(n: int, seed: int = 3) -> list[tuple]:
    rng = random.Random(seed)
    return [
        (
            i % 37,
            None if rng.random() < 0.25 else rng.random(),
            None if rng.random() < 0.25 else f"row_{i}_{'x' * (i % 9)}",
            None if rng.random() < 0.25 else i % 2 == 0,
        )
        for i in range(n)
    ]


def small_partition(schema, rows) -> IndexedPartition:
    layout = PointerLayout.for_geometry(4096, 512)
    partition = IndexedPartition(schema, 0, layout, 4096, 512)
    partition.append_many(rows)
    return partition


# ----------------------------------------------------------------------
# Payload decoder
# ----------------------------------------------------------------------


def test_batch_decoder_matches_decode():
    codec = RowCodec(MIXED_SCHEMA)
    rows = mixed_rows(300)
    payloads = [codec.encode(r) for r in rows]
    assert codec.batch_decoder()(payloads) == rows


def test_batch_decoder_selective_columns():
    codec = RowCodec(MIXED_SCHEMA)
    rows = mixed_rows(100)
    payloads = [codec.encode(r) for r in rows]
    assert codec.batch_decoder([2, 0])(payloads) == [(r[2], r[0]) for r in rows]
    assert codec.batch_decoder([1])(payloads) == [(r[1],) for r in rows]


def test_batch_decoder_all_fixed_fast_path():
    codec = RowCodec(FIXED_SCHEMA)
    rows = [(i, float(i) if i % 3 else None) for i in range(200)]
    payloads = [codec.encode(r) for r in rows]
    assert codec.batch_decoder()(payloads) == rows


def test_batch_decoder_rejects_bad_ordinal():
    codec = RowCodec(MIXED_SCHEMA)
    with pytest.raises(CodegenError):
        codec.batch_decoder([4])


def test_decoders_are_memoized():
    codec = RowCodec(MIXED_SCHEMA)
    assert codec.batch_decoder() is codec.batch_decoder()
    assert codec.batch_decoder([1]) is codec.batch_decoder([1])
    assert codec.batch_decoder() is not codec.batch_decoder([1])
    assert codec.region_decoder() is codec.region_decoder()


# ----------------------------------------------------------------------
# Region decoder (batch-buffer walker)
# ----------------------------------------------------------------------


def test_region_scan_matches_interpreted_scan():
    partition = small_partition(MIXED_SCHEMA, mixed_rows(2000))
    snapshot = partition.snapshot()
    assert list(snapshot.scan_batches()) == list(snapshot.scan())


def test_region_scan_selective_and_chunked():
    partition = small_partition(MIXED_SCHEMA, mixed_rows(500))
    snapshot = partition.snapshot()
    expected = list(snapshot.scan())
    assert list(snapshot.scan_batches(columns=[3, 1])) == [
        (r[3], r[1]) for r in expected
    ]
    it = snapshot.scan_batches(chunk_rows=7)
    assert [next(it) for _ in range(20)] == expected[:20]


def test_region_scan_respects_watermark():
    partition = small_partition(MIXED_SCHEMA, mixed_rows(100))
    snapshot = partition.snapshot()
    before = list(snapshot.scan_batches())
    partition.append_many(mixed_rows(50, seed=9))
    assert list(snapshot.scan_batches()) == before
    assert len(list(partition.snapshot().scan_batches())) == 150


# ----------------------------------------------------------------------
# Stride decoder (all-fixed-width regions)
# ----------------------------------------------------------------------

#: Ten fixed-width fields: two bitmap bytes, doubles, booleans, ints.
WIDE_SCHEMA = StructType(
    [StructField("k", LongType())]
    + [
        StructField(f"c{i}", [DoubleType(), BooleanType(), IntegerType()][i % 3])
        for i in range(1, 10)
    ]
)


def wide_rows(n: int, null_at: dict[int, int] | None = None) -> list[tuple]:
    """``n`` NULL-free rows, except row ``r`` gets a NULL in field
    ``null_at[r]``."""
    makers = [lambda i: i * 0.5, lambda i: i % 3 == 0, lambda i: i - 7]
    rows = []
    for r in range(n):
        row = [r % 11] + [makers[f % 3](r + f) for f in range(1, 10)]
        if null_at and r in null_at:
            row[null_at[r]] = None
        rows.append(tuple(row))
    return rows


def region_rows(snapshot, decode, chunk_rows: int) -> list[tuple]:
    """Drive ``decode`` over the snapshot's regions, ``chunk_rows`` records
    per call, checking each call walks exactly that many records."""
    record = HEADER_SIZE + snapshot.partition.codec.fixed_size
    out = []
    for buf, end in snapshot.partition.batches.regions(snapshot.watermark):
        base = 0
        while base < end:
            rows, next_base = decode(buf, base, end, chunk_rows)
            assert next_base == min(end, base + chunk_rows * record)
            out.extend(rows)
            base = next_base
    return out


def test_stride_decoder_is_not_generated_and_matches_rows():
    rows = wide_rows(300)
    snapshot = small_partition(WIDE_SCHEMA, rows).snapshot()
    decode = snapshot.partition.codec.region_decoder()
    assert not hasattr(decode, "__codegen_source__")
    assert list(snapshot.scan_batches()) == rows == list(snapshot.scan())


@pytest.mark.parametrize("null_field", [1, 2, 3, 8, 9])
def test_stride_chunk_with_one_null_falls_back(null_field):
    # Field 8 and 9 live in the second bitmap byte.
    rows = wide_rows(200, null_at={77: null_field})
    snapshot = small_partition(WIDE_SCHEMA, rows).snapshot()
    assert list(snapshot.scan_batches(chunk_rows=16)) == rows
    assert list(snapshot.scan_batches(columns=[0, null_field])) == [
        (r[0], r[null_field]) for r in rows
    ]


@pytest.mark.parametrize(
    "columns", [[0], [3], [1, 2], [0, 4, 8, 9], [9], [2, 0], [5, 5]]
)
def test_stride_column_subsets(columns):
    rows = wide_rows(150, null_at={3: 4, 140: 9})
    snapshot = small_partition(WIDE_SCHEMA, rows).snapshot()
    expected = [tuple(r[c] for c in columns) for r in rows]
    assert list(snapshot.scan_batches(columns=columns, chunk_rows=32)) == expected


@pytest.mark.parametrize("chunk_rows", [1, 7, 64, 4096])
def test_stride_max_rows_chunking(chunk_rows):
    rows = wide_rows(250, null_at={100: 2})
    snapshot = small_partition(WIDE_SCHEMA, rows).snapshot()
    decode = snapshot.partition.codec.region_decoder([0, 1])
    assert region_rows(snapshot, decode, chunk_rows) == [r[:2] for r in rows]


def test_stride_watermark_mid_batch_and_later_rows_invisible():
    layout = PointerLayout.for_geometry(1 << 16, 512)
    partition = IndexedPartition(WIDE_SCHEMA, 0, layout, 1 << 16, 512)
    rows = wide_rows(40)
    partition.append_many(rows)
    snapshot = partition.snapshot()
    _batches, used = snapshot.watermark
    assert 0 < used < (1 << 16)  # the snapshot ends inside a batch
    partition.append(wide_rows(41)[-1])
    partition.append_many(wide_rows(60, null_at={50: 3})[41:])
    assert list(snapshot.scan_batches()) == rows
    assert list(snapshot.scan_batches(columns=[0])) == [r[:1] for r in rows]
    assert len(list(partition.snapshot().scan_batches())) == 60


def test_fixed_schema_double_and_boolean_slots():
    schema = StructType(
        [StructField("d", DoubleType()), StructField("b", BooleanType())]
    )
    rows = [(i / 3, i % 2 == 1) for i in range(100)] + [(None, True), (2.5, None)]
    snapshot = small_partition(schema, rows).snapshot()
    assert list(snapshot.scan_batches(chunk_rows=50)) == rows
    assert list(snapshot.scan_batches(columns=[1])) == [(r[1],) for r in rows]


# ----------------------------------------------------------------------
# Filter decoders (a predicate pushed into the scan)
# ----------------------------------------------------------------------


def bound(ordinal: int, dtype) -> E.BoundReference:
    return E.BoundReference(ordinal, dtype, f"c{ordinal}")


def test_fixed_filter_decoder_keeps_matching_rows():
    rows = wide_rows(300, null_at={10: 3, 20: 1})
    snapshot = small_partition(WIDE_SCHEMA, rows).snapshot()
    # Decoded columns [0, 3]: the predicate reads decoded ordinal 1.
    predicate = E.GreaterThan(bound(1, DoubleType()), E.Literal(100.0))
    got = list(snapshot.scan_batches(columns=[0, 3], predicate=predicate, chunk_rows=64))
    assert got == [(r[0], r[3]) for r in rows if r[3] is not None and r[3] > 100]


def test_var_filter_null_in_predicate_column():
    rows = mixed_rows(600)  # score (field 1) is NULL in about a quarter
    snapshot = small_partition(MIXED_SCHEMA, rows).snapshot()
    predicate = E.LessThan(bound(1, DoubleType()), E.Literal(0.5))
    got = list(snapshot.scan_batches(predicate=predicate, chunk_rows=50))
    assert got == [r for r in rows if r[1] is not None and r[1] < 0.5]
    # IS NULL keeps exactly the NULL rows.
    nulls = list(snapshot.scan_batches(predicate=E.IsNull(bound(1, DoubleType()))))
    assert nulls == [r for r in rows if r[1] is None]


def test_var_filter_on_string_column_with_columns_subset():
    rows = mixed_rows(500)
    snapshot = small_partition(MIXED_SCHEMA, rows).snapshot()
    # Decoded columns [2, 0]: the predicate reads the string (ordinal 0)
    # and the key (ordinal 1).
    predicate = E.And(
        E.GreaterThanOrEqual(bound(0, StringType()), E.Literal("row_3")),
        E.LessThan(bound(1, LongType()), E.Literal(20)),
    )
    got = list(snapshot.scan_batches(columns=[2, 0], predicate=predicate))
    assert got == [
        (r[2], r[0]) for r in rows if r[2] is not None and r[2] >= "row_3" and r[0] < 20
    ]


def test_var_filter_string_literal_compiles_once():
    rows = mixed_rows(400)
    snapshot = small_partition(MIXED_SCHEMA, rows).snapshot()
    names = [r[2] for r in rows if r[2] is not None][:5]

    def matching(name):
        predicate = E.EqualTo(bound(2, StringType()), E.Literal(name))
        return list(snapshot.scan_batches(predicate=predicate, chunk_rows=33))

    assert matching(names[0]) == [r for r in rows if r[2] == names[0]]
    before = codegen.stats()
    for name in names[1:]:
        assert matching(name) == [r for r in rows if r[2] == name]
    assert codegen.stats().compiled == before.compiled


def test_var_filter_decodes_the_rest_only_for_survivors():
    rows = mixed_rows(300)
    snapshot = small_partition(MIXED_SCHEMA, rows).snapshot()
    codec = snapshot.partition.codec
    predicate = E.EqualTo(bound(0, LongType()), E.Literal(5))
    decode = codec.region_decoder(None, predicate)
    source = decode.__codegen_source__
    # The key is decoded before the verdict, the string after it.
    assert source.index("f0 =") < source.index("continue") < source.index("f2 =")
    assert region_rows_var(snapshot, decode) == [r for r in rows if r[0] == 5]


def region_rows_var(snapshot, decode) -> list[tuple]:
    out = []
    for buf, end in snapshot.partition.batches.regions(snapshot.watermark):
        base = 0
        while base < end:
            rows, base = decode(buf, base, end, 9)
            out.extend(rows)
    return out


def test_filter_decoder_respects_watermark():
    partition = small_partition(MIXED_SCHEMA, mixed_rows(100))
    snapshot = partition.snapshot()
    partition.append_many([(5, 1.0, "late", True)] * 3)
    predicate = E.EqualTo(bound(0, LongType()), E.Literal(5))
    got = list(snapshot.scan_batches(predicate=predicate))
    assert got == [r for r in mixed_rows(100) if r[0] == 5]


# ----------------------------------------------------------------------
# Chain decoder (point/bulk lookup)
# ----------------------------------------------------------------------


def test_lookup_rows_matches_lookup():
    rows = mixed_rows(1500)  # keys collide (i % 37) -> long chains
    partition = small_partition(MIXED_SCHEMA, rows)
    snapshot = partition.snapshot()
    keys = list(range(40))  # 37..39 are absent: i % 37 caps the key space
    # Newest first per key, from the rows as appended.
    expected = [r for k in keys for r in reversed(rows) if r[0] == k]
    assert [r for k in keys for r in snapshot.lookup(k)] == expected
    assert snapshot.lookup_rows(keys) == expected
    assert snapshot.lookup_rows([]) == []
    assert snapshot.lookup_rows([123456]) == []


def test_lookup_rows_newest_first_per_key():
    partition = small_partition(
        MIXED_SCHEMA, [(7, float(v), f"v{v}", True) for v in range(5)]
    )
    snapshot = partition.snapshot()
    names = [r[2] for r in snapshot.lookup_rows([7])]
    assert names == ["v4", "v3", "v2", "v1", "v0"]


def test_chain_decoder_memoized_per_layout():
    codec = RowCodec(MIXED_SCHEMA)
    layout_a = PointerLayout.for_geometry(4096, 512)
    layout_b = PointerLayout.for_geometry(1 << 20, 1024)
    assert codec.chain_decoder(layout_a) is codec.chain_decoder(layout_a)
    assert codec.chain_decoder(layout_a) is not codec.chain_decoder(layout_b)


# ----------------------------------------------------------------------
# RowCodec validation + registry
# ----------------------------------------------------------------------


def test_max_row_bytes_over_u16_rejected_at_construction():
    with pytest.raises(CapacityError, match="65535"):
        RowCodec(MIXED_SCHEMA, max_row_bytes=65536)
    # The limit itself is fine.
    RowCodec(MIXED_SCHEMA, max_row_bytes=65535)


def test_codec_for_shares_instances_structurally():
    schema_a = StructType(
        [StructField("x", LongType()), StructField("y", StringType())]
    )
    schema_b = StructType(
        [StructField("x", LongType()), StructField("y", StringType())]
    )
    assert schema_a is not schema_b
    assert codec_for(schema_a) is codec_for(schema_b)
    assert codec_for(schema_a, 2048) is not codec_for(schema_a, 1024)
    different = StructType(
        [StructField("x", LongType()), StructField("z", StringType())]
    )
    assert codec_for(different) is not codec_for(schema_a)


def test_partitions_share_registry_codec():
    layout = PointerLayout.for_geometry(4096, 512)
    p1 = IndexedPartition(MIXED_SCHEMA, 0, layout, 4096, 512)
    p2 = IndexedPartition(MIXED_SCHEMA, 0, layout, 4096, 512)
    assert p1.codec is p2.codec
