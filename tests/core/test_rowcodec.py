"""Tests for the binary row codec."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rowcodec import RowCodec
from repro.errors import CapacityError, SchemaError
from repro.sql.types import (
    BinaryType,
    BooleanType,
    DoubleType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
    TimestampType,
)

MIXED = StructType(
    [
        StructField("id", LongType()),
        StructField("name", StringType()),
        StructField("score", DoubleType()),
        StructField("active", BooleanType()),
        StructField("small", IntegerType()),
        StructField("raw", BinaryType()),
        StructField("ts", TimestampType()),
    ]
)

FIXED_ONLY = StructType(
    [
        StructField("a", LongType()),
        StructField("b", LongType()),
        StructField("c", DoubleType()),
    ]
)


class TestRoundTrip:
    def test_mixed_row(self):
        codec = RowCodec(MIXED)
        row = (7, "alice", 3.5, True, 42, b"\x00\x01", 1_600_000_000_000)
        assert codec.decode(codec.encode(row)) == row

    def test_all_nulls(self):
        codec = RowCodec(MIXED)
        row = (None,) * 7
        assert codec.decode(codec.encode(row)) == row

    def test_partial_nulls(self):
        codec = RowCodec(MIXED)
        row = (1, None, None, False, None, b"", None)
        assert codec.decode(codec.encode(row)) == row

    def test_empty_string_distinct_from_null(self):
        codec = RowCodec(MIXED)
        row = (1, "", 0.0, False, 0, b"", 0)
        decoded = codec.decode(codec.encode(row))
        assert decoded[1] == "" and decoded[1] is not None

    def test_unicode_strings(self):
        codec = RowCodec(MIXED)
        row = (1, "héllo wörld — ünïcode ✓", 0.0, True, 0, b"", 0)
        assert codec.decode(codec.encode(row))[1] == row[1]

    def test_fixed_only_fast_path(self):
        codec = RowCodec(FIXED_ONLY)
        row = (1, -2, 3.5)
        encoded = codec.encode(row)
        assert len(encoded) == codec.fixed_size
        assert codec.decode(encoded) == row

    def test_fixed_only_with_nulls_falls_back(self):
        codec = RowCodec(FIXED_ONLY)
        row = (1, None, 3.5)
        assert codec.decode(codec.encode(row)) == row

    def test_negative_and_extreme_values(self):
        codec = RowCodec(FIXED_ONLY)
        row = (-(2**63), 2**63 - 1, float("inf"))
        assert codec.decode(codec.encode(row)) == row

    def test_decode_at_offset(self):
        codec = RowCodec(FIXED_ONLY)
        encoded = codec.encode((1, 2, 3.0))
        padded = b"\xff" * 13 + encoded
        assert codec.decode(padded, base=13) == (1, 2, 3.0)

    def test_decode_from_memoryview(self):
        codec = RowCodec(MIXED)
        row = (9, "view", 1.0, False, 3, b"xy", 5)
        buf = memoryview(bytearray(codec.encode(row)))
        assert codec.decode(buf) == row


class TestErrors:
    def test_arity_mismatch(self):
        codec = RowCodec(FIXED_ONLY)
        with pytest.raises(SchemaError):
            codec.encode((1, 2))

    def test_row_too_large(self):
        codec = RowCodec(MIXED, max_row_bytes=64)
        with pytest.raises(CapacityError):
            codec.encode((1, "x" * 100, 0.0, True, 1, b"", 0))

    def test_integer_out_of_field_range(self):
        schema = StructType([StructField("i", IntegerType())])
        codec = RowCodec(schema)
        with pytest.raises(SchemaError):
            codec.encode((2**40,))

    def test_long_out_of_range_on_fast_path(self):
        codec = RowCodec(FIXED_ONLY)
        with pytest.raises(SchemaError):
            codec.encode((2**70, 0, 0.0))


values = st.tuples(
    st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)),
    st.one_of(st.none(), st.text(max_size=40)),
    st.one_of(st.none(), st.floats(allow_nan=False)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.integers(-(2**31), 2**31 - 1)),
    st.one_of(st.none(), st.binary(max_size=40)),
    st.one_of(st.none(), st.integers(0, 2**40)),
)


@given(values)
def test_roundtrip_property(row):
    codec = RowCodec(MIXED)
    assert codec.decode(codec.encode(row)) == row


@given(values, values)
def test_rows_decode_independently(row_a, row_b):
    codec = RowCodec(MIXED)
    buffer = codec.encode(row_a) + codec.encode(row_b)
    assert codec.decode(buffer, 0) == row_a
    assert codec.decode(buffer, len(codec.encode(row_a))) == row_b
