"""Tests for the Text/Sequence/ORC file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rows import DataType, Schema, pack_column
from repro.storage.formats import orc
from repro.storage.formats.base import get_format
from repro.storage.formats.orc import (
    OrcFormat,
    read_varint,
    unzigzag,
    write_varint,
    zigzag,
)
from repro.storage.formats.sequence import record_size
from repro.storage.formats.text import decode_row, encode_row, text_size

SCHEMA = Schema.parse("id int, name string, price double, flag boolean, day date")

ROWS = [
    (1, "alpha", 1.5, True, "1995-01-01"),
    (2, "beta", 2.25, False, "1995-06-17"),
    (3, None, None, None, None),
    (4, "alpha", -3.75, True, "1998-12-01"),
]


class TestRegistry:
    def test_known_formats(self):
        for name in ("text", "sequence", "orc"):
            assert get_format(name).name == name

    def test_unknown_format(self):
        from repro.common.errors import StorageError

        with pytest.raises(StorageError):
            get_format("parquet")


class TestTextFormat:
    def test_encode_decode_row(self):
        line = encode_row(ROWS[0])
        assert decode_row(line, SCHEMA) == ROWS[0]

    def test_null_round_trip(self):
        line = encode_row(ROWS[2])
        assert decode_row(line, SCHEMA) == ROWS[2]

    def test_total_bytes_positive_and_additive(self):
        stored = get_format("text").build(SCHEMA, ROWS)
        assert stored.total_bytes > 0
        assert stored.bytes_for_range(0, 2) + stored.bytes_for_range(2, 2) == \
            stored.total_bytes

    def test_scan_range(self):
        stored = get_format("text").build(SCHEMA, ROWS)
        result = stored.scan(1, 2)
        assert result.batch.to_rows() == ROWS[1:3]
        assert result.bytes_read == stored.bytes_for_range(1, 2)

    def test_scan_past_end_clipped(self):
        stored = get_format("text").build(SCHEMA, ROWS)
        result = stored.scan(3, 100)
        assert result.batch.to_rows() == ROWS[3:]


class TestSequenceFormat:
    def test_larger_than_raw_payload(self):
        stored = get_format("sequence").build(SCHEMA, ROWS)
        assert stored.total_bytes > 0
        assert stored.row_count == len(ROWS)

    def test_scan_returns_rows(self):
        stored = get_format("sequence").build(SCHEMA, ROWS)
        assert stored.scan(0, 4).batch.to_rows() == ROWS

    def test_exotic_types_are_sized_row_by_row(self):
        class Name(str):  # a str subclass: no column-wise sizing pass
            pass

        rows = [(1, Name("alpha")), (2, Name("héllo")), (3, None)]
        stored = get_format("sequence").build(Schema.parse("id int, name string"), rows)
        assert stored.total_bytes == sum(map(record_size, rows))
        assert stored.rows == rows


class TestVarint:
    @settings(max_examples=200)
    @given(value=st.integers(min_value=0, max_value=2**63))
    def test_round_trip(self, value):
        out = bytearray()
        write_varint(value, out)
        decoded, offset = read_varint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    @settings(max_examples=200)
    @given(value=st.integers(min_value=-(2**62), max_value=2**62))
    def test_zigzag_round_trip(self, value):
        assert unzigzag(zigzag(value)) == value

    def test_zigzag_ordering_small(self):
        # zigzag interleaves: 0, -1, 1, -2, 2 ...
        assert [zigzag(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


class TestOrcFormat:
    def test_round_trip_all_stripes(self):
        stored = OrcFormat(stripe_rows=2).build(SCHEMA, ROWS)
        assert len(stored.stripes) == 2
        for index in range(len(stored.stripes)):
            decoded = stored.decode_stripe(index)
            start = stored.stripes[index].row_start
            assert decoded == ROWS[start : start + stored.stripes[index].row_count]

    def test_column_pruning_reduces_bytes(self):
        rows = [(i, f"name{i % 5}", float(i), True, "1995-01-01") for i in range(2000)]
        stored = OrcFormat().build(SCHEMA, rows)
        full = stored.scan(0, len(rows))
        pruned = stored.scan(0, len(rows), columns=["id"])
        assert pruned.bytes_read < full.bytes_read
        assert pruned.batch.to_rows() == full.batch.to_rows()  # full-width

    def test_predicate_pushdown_skips_stripes(self):
        rows = [(i, "x", float(i), True, "1995-01-01") for i in range(4000)]
        stored = OrcFormat(stripe_rows=1000).build(SCHEMA, rows)
        result = stored.scan(0, 4000, stats_conjuncts=[("id", ">", 3500)])
        assert result.rows_skipped >= 3000
        assert all(row[0] >= 3000 for row in result.batch.to_rows())

    def test_pushdown_conservative_on_unknown_column(self):
        stored = OrcFormat(stripe_rows=2).build(SCHEMA, ROWS)
        result = stored.scan(0, 4, stats_conjuncts=[("nope", "=", 1)])
        assert result.batch.size == 4

    def test_partial_stripe_charges_fraction(self):
        rows = [(i, "n", 1.0, True, "1995-01-01") for i in range(1000)]
        stored = OrcFormat(stripe_rows=1000).build(SCHEMA, rows)
        half = stored.bytes_for_range(0, 500)
        full = stored.bytes_for_range(0, 1000)
        assert 0 < half < full
        assert half == pytest.approx(full / 2, rel=0.2)

    def test_byte_totals_match_the_chunk_sums(self):
        # totals are summed once at build time; they must equal what
        # re-summing the encoded chunks gives
        rows = [(i, f"name{i % 7}", float(i), i % 3 == 0, "1995-01-01")
                for i in range(2500)]
        stored = OrcFormat(stripe_rows=1000).build(SCHEMA, rows)
        stripe_totals = [
            sum(chunk.stored_bytes for chunk in stripe.chunks.values())
            + orc._STRIPE_FOOTER_BYTES
            for stripe in stored.stripes
        ]
        assert [stripe.total_bytes for stripe in stored.stripes] == stripe_totals
        assert stored.total_bytes == sum(stripe_totals) + orc._FILE_FOOTER_BYTES
        for stripe in stored.stripes:
            assert stripe.bytes_for_columns(None) == stripe.total_bytes
            assert stripe.bytes_for_columns(SCHEMA.names) == stripe.total_bytes
        assert stored.bytes_for_range(0, len(rows)) == sum(stripe_totals)

    def test_dictionary_beats_direct_on_repeats(self):
        repeats = [(i, "only-a-few-values-%d" % (i % 3), 0.0, True, "1995-01-01")
                   for i in range(3000)]
        uniques = [(i, f"totally-unique-string-{i:08d}", 0.0, True, "1995-01-01")
                   for i in range(3000)]
        small = OrcFormat().build(SCHEMA, repeats).total_bytes
        big = OrcFormat().build(SCHEMA, uniques).total_bytes
        assert small < big

    def test_orc_smaller_than_text_on_typical_data(self):
        rows = [(i, f"cat{i % 20}", round(i * 1.1, 2), i % 2 == 0, "1996-03-01")
                for i in range(5000)]
        orc = get_format("orc").build(SCHEMA, rows).total_bytes
        text = get_format("text").build(SCHEMA, rows).total_bytes
        assert orc < text

    def test_stats_recorded(self):
        stored = OrcFormat(stripe_rows=4).build(SCHEMA, ROWS)
        stats = stored.stripes[0].stats
        assert stats["id"] == (1, 4)
        assert stats["name"] == ("alpha", "beta")


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(
    st.one_of(st.none(), st.integers(min_value=-(2**70), max_value=2**70)),
    st.one_of(st.none(), st.text(max_size=20)),
    st.one_of(st.none(), st.floats()),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.integers(0, 9), st.floats(allow_nan=False), st.just("é")),
), max_size=40))
def test_property_text_sizes_match_the_row_encoder(rows):
    """Column-wise Text sizing (the file's prefix sums, and ``text_size``
    — what loaders scale tables by) equals ``encode_row`` byte for byte."""
    schema = Schema.parse("a bigint, b string, c double, d boolean, e string")
    expected = [len(encode_row(row).encode("utf-8")) + 1 for row in rows]
    stored = get_format("text").build(schema, rows)
    assert [
        stored.bytes_for_range(index, 1) for index in range(len(rows))
    ] == expected
    assert stored.total_bytes == text_size(rows) == sum(expected)
    from_columns = get_format("text").from_columns(
        schema, [pack_column(column) for column in zip(*rows)], len(rows)
    )
    assert from_columns.total_bytes == stored.total_bytes
    assert repr(from_columns.rows) == repr(rows)  # repr: NaN != NaN


def test_text_size_matches_the_golden_totals():
    """The file-less sizer the loaders scale tables by gives the pinned
    Text totals of the hand-made golden corpus."""
    import json

    from .test_orc_golden import GOLDEN_PATH, handmade_cases

    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    for name, _schema, rows, _stripe_rows in handmade_cases():
        assert text_size(rows) == golden[name]["text"]["total"], name


_orc_row = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-(2**40), max_value=2**40)),
    st.one_of(st.none(), st.text(max_size=20)),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.just("1995-01-01")),
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_orc_row, min_size=1, max_size=60))
def test_property_orc_round_trip(rows):
    stored = OrcFormat(stripe_rows=16).build(SCHEMA, rows)
    decoded = []
    for index in range(len(stored.stripes)):
        decoded.extend(stored.decode_stripe(index))
    assert decoded == rows
    # the same file handed over as columns (what an engine task writes):
    # equal chunks and stats, and the rows are derived back from them
    columns = [pack_column(column) for column in zip(*rows)]
    from_columns = OrcFormat(stripe_rows=16).from_columns(
        SCHEMA, columns, len(rows)
    )
    assert [(s.chunks, s.stats) for s in from_columns.stripes] == \
        [(s.chunks, s.stats) for s in stored.stripes]
    assert from_columns.total_bytes == stored.total_bytes
    assert from_columns.rows == rows
    assert [
        row for index in range(len(from_columns.stripes))
        for row in from_columns.decode_stripe(index)
    ] == rows
