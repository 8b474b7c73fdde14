"""Differential tests: the bulk ORC encoders against the per-value ones.

The encoders in ``repro.storage.formats.orc`` work a column at a time in
C-level passes.  The functions under "reference" below are the per-value
encoders they replaced (as of ``682c24c``), kept here — and only here —
as the specification: for every input both must return the identical
``(encoding, bytes)``, because encoded sizes are what the simulated disk
is charged.  ``tests/test_orc_golden.py`` pins the same thing on fixed
corpora; hypothesis covers the input space around the boundaries (varint
widths, the run-length and dictionary thresholds, NULL masks, typed and
list containers, stripes that split).
"""

import struct
import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.common.rows import ColumnBatch, DataType, Schema, pack_column
from repro.storage.formats import orc
from repro.storage.formats.orc import OrcFormat, write_varint, zigzag

# ---------------------------------------------------------------------------
# reference: one write_varint / struct.pack per value
# ---------------------------------------------------------------------------

_F64 = struct.Struct(">d")


def reference_null_bitmap(values):
    bits = bytearray((len(values) + 7) // 8)
    for position, value in enumerate(values):
        if value is None:
            bits[position // 8] |= 1 << (position % 8)
    return bytes(bits)


def reference_int_stream(values):
    if not values:
        return "delta", b""
    runs = 1
    for previous, current in zip(values, values[1:]):
        if current != previous:
            runs += 1
    out = bytearray()
    if len(values) / runs >= 2.0:
        run_value = values[0]
        run_length = 1
        for current in values[1:]:
            if current == run_value:
                run_length += 1
            else:
                write_varint(run_length, out)
                write_varint(zigzag(run_value), out)
                run_value, run_length = current, 1
        write_varint(run_length, out)
        write_varint(zigzag(run_value), out)
        return "rle", bytes(out)
    previous = 0
    for current in values:
        write_varint(zigzag(current - previous), out)
        previous = current
    return "delta", bytes(out)


def reference_string_stream(values):
    distinct = sorted(set(values))
    out = bytearray()
    if values and len(distinct) / len(values) < orc._DICT_THRESHOLD:
        index_of = {text: position for position, text in enumerate(distinct)}
        write_varint(len(distinct), out)
        for text in distinct:
            data = text.encode("utf-8")
            write_varint(len(data), out)
            out += data
        for text in values:
            write_varint(index_of[text], out)
        return "dict", bytes(out)
    for text in values:
        data = text.encode("utf-8")
        write_varint(len(data), out)
        out += data
    return "direct", bytes(out)


def reference_double_stream(values):
    return "raw", b"".join(_F64.pack(value) for value in values)


def reference_bool_stream(values):
    bits = bytearray((len(values) + 7) // 8)
    for position, value in enumerate(values):
        if value:
            bits[position // 8] |= 1 << (position % 8)
    return "bitpack", bytes(bits)


_REFERENCE_STREAMS = {
    DataType.INT: reference_int_stream,
    DataType.BIGINT: reference_int_stream,
    DataType.DOUBLE: reference_double_stream,
    DataType.STRING: reference_string_stream,
    DataType.DATE: reference_string_stream,
    DataType.BOOLEAN: reference_bool_stream,
}


def reference_chunk(dtype, values):
    """``(encoding, null bitmap, compressed, uncompressed size)`` and the
    ``(min, max)`` stats of one stripe column, the per-value way."""
    values = list(values)
    present = [value for value in values if value is not None]
    encoding, raw = _REFERENCE_STREAMS[dtype](present)
    compressed = zlib.compress(raw, 6)
    if len(compressed) >= len(raw):
        compressed = raw
    stats = (min(present), max(present)) if present else (None, None)
    return (encoding, reference_null_bitmap(values), compressed, len(raw)), stats


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

#: magnitudes straddling every varint width the encoders special-case:
#: one byte / two (the table) / three-four (split) / five and more
_WIDTHS = (0, 1, 2**6, 2**7, 2**13, 2**14, 2**20, 2**21, 2**27, 2**28,
           2**35, 2**62, 2**64, 2**70)

_edge_ints = st.builds(
    lambda base, jitter, sign: sign * max(0, base + jitter),
    st.sampled_from(_WIDTHS), st.integers(-3, 3), st.sampled_from((1, -1)),
)
_ints = st.one_of(_edge_ints, st.integers(-(2**40), 2**40), st.integers(-5, 5))
#: repeats make runs, so both sides of the RLE threshold are reached
_int_columns = st.lists(
    st.tuples(_ints, st.integers(1, 4)), max_size=120
).map(lambda runs: [value for value, count in runs for _ in range(count)])

_texts = st.one_of(
    st.text(max_size=12),  # arbitrary Unicode, surrogates excluded
    st.sampled_from(("", "a", "naïve", "日本語", "x" * 127, "y" * 128,
                     "é" * 64, "z" * 17000)),
)
#: a small pool makes repeats, so both sides of _DICT_THRESHOLD are reached
_text_columns = st.one_of(
    st.lists(_texts, max_size=80),
    st.lists(st.sampled_from(("k1", "k2", "ü3", "")), max_size=80),
)

_doubles = st.floats(allow_nan=False)  # infinities and -0.0 included


def _with_nulls(column, mask):
    return [None if null else value for value, null in zip(column, mask)]


# ---------------------------------------------------------------------------
# stream level
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(values=_int_columns)
def test_int_stream_matches_reference(values):
    assert orc._encode_int_stream(values) == reference_int_stream(values)
    try:
        packed = array("q", values)
    except OverflowError:
        return  # beyond 64 bits: such a column is never a typed buffer
    assert orc._encode_int_stream(packed) == reference_int_stream(values)


@settings(max_examples=300, deadline=None)
@given(values=_text_columns)
def test_string_stream_matches_reference(values):
    assert orc._encode_string_stream(values) == reference_string_stream(values)


def test_string_stream_at_the_dictionary_threshold():
    for distinct, total in ((5, 10), (4, 10), (6, 10), (1, 2), (1, 1)):
        values = [f"v{index % distinct}" for index in range(total)]
        got = orc._encode_string_stream(values)
        assert got == reference_string_stream(values)
        assert got[0] == ("dict" if distinct / total < 0.5 else "direct")


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_doubles, max_size=200))
def test_double_stream_matches_reference(values):
    assert orc._encode_double_stream(values) == reference_double_stream(values)
    assert orc._encode_double_stream(array("d", values)) == \
        reference_double_stream(values)


def test_double_stream_keeps_nan_payloads():
    values = [float("nan"), -float("nan"), 0.0, -0.0, float("inf")]
    assert orc._encode_double_stream(values) == reference_double_stream(values)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.booleans(), max_size=200))
def test_bool_stream_matches_reference(values):
    assert orc._encode_bool_stream(values) == reference_bool_stream(values)


@settings(max_examples=200, deadline=None)
@given(mask=st.lists(st.booleans(), max_size=200))
def test_null_bitmap_matches_reference(mask):
    values = [None if null else 7 for null in mask]
    assert orc._encode_null_bitmap(values) == reference_null_bitmap(values)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.one_of(st.sampled_from(_WIDTHS), st.integers(0, 2**30)), max_size=50
))
def test_bulk_varints_match_write_varint(values):
    expected = bytearray()
    for value in values:
        write_varint(value, expected)
    assert orc._varints(values) == bytes(expected)


@pytest.mark.parametrize("values", [[-1], [3, -1], [2**20, -7], [200, -2**70]])
def test_bulk_varints_reject_negative_values(values):
    with pytest.raises(StorageError, match="varint requires non-negative"):
        orc._varints(values)


def test_varint_table_stays_small():
    import sys

    table = orc._varint_table()
    total = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
    assert total <= 1 << 20


# ---------------------------------------------------------------------------
# column / file level: NULL masks, containers, stripes that split
# ---------------------------------------------------------------------------

_SCHEMA = Schema.parse("i bigint, s string, d double, f boolean, t date")
_DTYPES = _SCHEMA.types


def _chunk_tuple(chunk):
    return (chunk.encoding, chunk.null_bitmap, chunk.compressed,
            chunk.uncompressed_bytes)


def _assert_matches_reference(stored, columns, size):
    """Every chunk and stat of *stored* equals the per-value encoding of
    the same stripe slice of *columns*; decoded columns are in
    ``pack_column`` normal form; ``decode_stripe`` returns the rows."""
    assert stored.row_count == size
    rows = list(zip(*columns)) if size else []
    for index, stripe in enumerate(stored.stripes):
        lo, hi = stripe.row_start, stripe.row_start + stripe.row_count
        for column, dtype, values in zip(_SCHEMA.columns, _DTYPES, columns):
            name = column.name.lower()
            want_chunk, want_stats = reference_chunk(dtype, values[lo:hi])
            assert _chunk_tuple(stripe.chunks[name]) == want_chunk, name
            assert stripe.stats[name] == want_stats, name
        for got, values in zip(stored.decoded_stripe_columns(index), columns):
            want = pack_column(list(values[lo:hi]))
            assert type(got) is type(want)
            assert list(got) == list(want)
        assert stored.decode_stripe(index) == rows[lo:hi]
    assert sum(s.row_count for s in stored.stripes) == size


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=st.integers(0, 3000))
def test_file_from_columns_matches_reference_and_rows(data, size):
    # long files come from tiling a short drawn prefix: the stripes split
    # (1024 rows each) without hypothesis drawing thousands of values
    prefix = data.draw(st.integers(1, 40))

    def tiled(strategy):
        drawn = data.draw(st.lists(strategy, min_size=prefix, max_size=prefix))
        return [drawn[index % prefix] for index in range(size)]

    null_rate = data.draw(st.sampled_from((0, 0, 3, 1)))

    def masked(column):
        if not null_rate:
            return column
        mask = tiled(st.integers(0, null_rate).map(lambda draw: draw == 0))
        return _with_nulls(column, mask)

    columns = [
        masked(tiled(_ints)), masked(tiled(_texts.filter(lambda t: len(t) < 200))),
        masked(tiled(_doubles)), masked(tiled(st.booleans())),
        masked(tiled(st.sampled_from(("1995-01-01", "1998-12-01")))),
    ]
    rows = list(zip(*columns)) if size else []

    from_rows = OrcFormat().build(_SCHEMA, rows)
    _assert_matches_reference(from_rows, columns, size)

    # the same contents handed over as an engine would: typed buffers
    # where the values allow, then as tuples (a reduce tail's transpose)
    for containers in ([pack_column(list(c)) for c in columns],
                       [tuple(c) for c in columns]):
        from_columns = OrcFormat().from_columns(_SCHEMA, containers, size)
        _assert_matches_reference(from_columns, columns, size)
        assert from_columns.total_bytes == from_rows.total_bytes
        assert from_columns.rows == rows
        result = from_columns.scan_batch(0, size).batch
        assert isinstance(result, ColumnBatch)
        assert result.to_rows() == rows


def test_last_stripe_of_one_row():
    size = 1025
    columns = [list(range(size)), [f"s{i % 7}" for i in range(size)],
               [i / 3 for i in range(size)], [i % 2 == 0 for i in range(size)],
               ["1995-01-01"] * size]
    stored = OrcFormat().from_columns(_SCHEMA, columns, size)
    assert [s.row_count for s in stored.stripes] == [1024, 1]
    _assert_matches_reference(stored, columns, size)
