"""ORCFile-style columnar format (paper §V-C, Table II).

Faithful to the parts of ORC that matter for the evaluation:

* rows are grouped into **stripes**;
* within a stripe every column is stored as its own stream with a
  type-appropriate encoding — run-length / zigzag-varint-delta for
  integers, dictionary or direct for strings, raw IEEE-754 for doubles,
  bit-packing for booleans — plus a null bitmap;
* each stream is zlib-compressed (ORC's default codec);
* stripes carry min/max **statistics** per column, enabling predicate
  pushdown (stripe skipping), and readers fetch only the **columns the
  query needs**.

The reproduction really encodes (and can decode — round-trip tested) the
column streams, so the bytes charged to the simulated disk reflect the
true compressibility of the data, which is where the ~22 % Text→ORC win
in Table II comes from.
"""

from __future__ import annotations

import functools
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import is_, ne, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.common.errors import StorageError
from repro.common.rows import (
    ColumnBatch,
    DataType,
    Schema,
    and_no_nulls,
    concat_columns,
    pack_column,
)
from repro.storage.formats.base import (
    FileFormat,
    Row,
    ScanResult,
    StatsConjunct,
    StoredFile,
    evaluate_stats_conjunct,
    register_format,
)

_F64 = struct.Struct(">d")
_STRIPE_FOOTER_BYTES = 64  # stream directory + encodings
_FILE_FOOTER_BYTES = 256  # schema, stripe index, file stats
_DICT_THRESHOLD = 0.5  # dictionary-encode when ndv/rows is below this


# ---------------------------------------------------------------------------
# varint / zigzag primitives
# ---------------------------------------------------------------------------

def write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise StorageError("varint requires non-negative value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return value >> 1 if value % 2 == 0 else -((value + 1) >> 1)


# ---------------------------------------------------------------------------
# bulk primitives: the same bytes as the scalar ones above, a column at a
# time in C-level passes
# ---------------------------------------------------------------------------

_VARINT_TABLE_SIZE = 1 << 14  # every one- and two-byte varint


@functools.lru_cache(maxsize=None)
def _varint_table() -> Tuple[bytes, ...]:
    """``write_varint`` of every value below 2^14, built on first use
    (under 1 MiB; a process that never writes ORC never pays for it)."""
    table = []
    for value in range(_VARINT_TABLE_SIZE):
        out = bytearray()
        write_varint(value, out)
        table.append(bytes(out))
    return tuple(table)


def _wide_varint(value: int, table: Tuple[bytes, ...]) -> bytes:
    """``write_varint`` of a value of 2^14 or more: below 2^28 it is the
    low 14 bits as two continuation bytes, then the table's varint of
    the rest."""
    if value >> 28:
        out = bytearray()
        write_varint(value, out)
        return bytes(out)
    return (bytes((value & 0x7F | 0x80, value >> 7 & 0x7F | 0x80))
            + table[value >> 14])


def _varint_pieces(values: Sequence[int]) -> List[bytes]:
    """``write_varint`` of each of the non-negative *values*, one bytes
    object per value."""
    table = _varint_table()
    try:
        return list(map(table.__getitem__, values))
    except IndexError:  # some value takes three bytes or more
        return [
            table[value] if value < _VARINT_TABLE_SIZE
            else _wide_varint(value, table)
            for value in values
        ]


def _varints(values: List[int]) -> bytes:
    """The concatenated varints of *values* — a list: ``bytes()`` of a
    typed array would be its raw buffer."""
    if not values:
        return b""
    if min(values) < 0:
        raise StorageError("varint requires non-negative value")
    if max(values) < 0x80:
        return bytes(values)  # one byte each, the values themselves
    return b"".join(_varint_pieces(values))


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_bits(flags: bytes) -> bytes:
    """Bit-pack *flags* (one 0/1 byte per position), least significant
    bit first within each byte."""
    if not flags:
        return b""
    bits = int(flags[::-1].translate(_BIT_DIGITS), 2)
    return bits.to_bytes((len(flags) + 7) // 8, "little")


# ---------------------------------------------------------------------------
# column encoders (operate on the non-null values; nulls go in a bitmap)
# ---------------------------------------------------------------------------

_is_null = functools.partial(is_, None)


def _encode_null_bitmap(values: Sequence[object]) -> bytes:
    return _pack_bits(bytes(map(_is_null, values)))


def _decode_null_bitmap(bitmap: bytes, count: int) -> List[bool]:
    return [bool(bitmap[i // 8] & (1 << (i % 8))) for i in range(count)]


def _encode_int_stream(values: Sequence[int]) -> Tuple[str, bytes]:
    """RLE when runs dominate, zigzag-delta varints otherwise."""
    count = len(values)
    if not count:
        return "delta", b""
    # positions whose value differs from the one before: the run starts
    changes = list(compress(range(1, count), map(ne, values, values[1:])))
    if count / (len(changes) + 1) >= 2.0:  # average run length >= 2 -> RLE pays off
        starts = [0] + changes
        lengths = map(sub, changes + [count], starts)
        encoded = [zigzag(values[start]) for start in starts]
        return "rle", _varints(list(chain.from_iterable(zip(lengths, encoded))))
    deltas = map(sub, values, chain((0,), values))
    return "delta", _varints([  # zigzag(), inlined: no call per value
        delta << 1 if delta >= 0 else ((-delta) << 1) - 1 for delta in deltas
    ])


def _decode_int_stream(encoding: str, data: bytes, count: int) -> List[int]:
    values: List[int] = []
    offset = 0
    if encoding == "rle":
        while len(values) < count:
            run_length, offset = read_varint(data, offset)
            encoded, offset = read_varint(data, offset)
            values.extend([unzigzag(encoded)] * run_length)
        return values[:count]
    previous = 0
    for _ in range(count):
        encoded, offset = read_varint(data, offset)
        previous += unzigzag(encoded)
        values.append(previous)
    return values


def _length_prefixed(texts: Sequence[str]) -> bytes:
    """Each text as a varint UTF-8 byte length followed by the bytes."""
    if not texts:
        return b""
    pieces: list = [None] * (2 * len(texts))
    if "".join(texts).isascii():
        lengths = list(map(len, texts))  # ASCII: one byte per character
        if max(lengths) < 0x80:
            # one-byte varints are ASCII as well: interleave as text and
            # encode the whole stream once instead of once per value
            pieces[0::2] = map(chr, lengths)
            pieces[1::2] = texts
            return "".join(pieces).encode("ascii")
    encoded = list(map(str.encode, texts))
    pieces[0::2] = _varint_pieces(list(map(len, encoded)))
    pieces[1::2] = encoded
    return b"".join(pieces)


def _encode_string_stream(
    values: Sequence[str], distinct: Optional[Set[str]] = None
) -> Tuple[str, bytes]:
    """Dictionary encoding when the column repeats enough, else direct.
    *distinct* is ``set(values)`` when the caller already has it."""
    if distinct is None:
        distinct = set(values)
    if values and len(distinct) / len(values) < _DICT_THRESHOLD:
        dictionary = sorted(distinct)  # sorted: hash order cannot leak
        index_of = dict(zip(dictionary, range(len(dictionary))))
        indices = map(index_of.__getitem__, values)
        return "dict", b"".join((
            _varints([len(dictionary)]),
            _length_prefixed(dictionary),
            # up to 2^7 entries every index is its own one-byte varint
            bytes(indices) if len(dictionary) <= 0x80
            else _varints(list(indices)),
        ))
    return "direct", _length_prefixed(values)


def _decode_string_stream(encoding: str, data: bytes, count: int) -> List[str]:
    offset = 0
    if encoding == "dict":
        size, offset = read_varint(data, offset)
        dictionary = []
        for _ in range(size):
            length, offset = read_varint(data, offset)
            dictionary.append(data[offset : offset + length].decode("utf-8"))
            offset += length
        values = []
        for _ in range(count):
            index, offset = read_varint(data, offset)
            values.append(dictionary[index])
        return values
    values = []
    for _ in range(count):
        length, offset = read_varint(data, offset)
        values.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    return values


def _encode_double_stream(values: Sequence[float]) -> Tuple[str, bytes]:
    """Big-endian IEEE-754, eight bytes per value: one buffer copy and a
    byte swap instead of a ``struct.pack`` per value."""
    buffer = array("d", values)
    if sys.byteorder == "little":
        buffer.byteswap()
    return "raw", buffer.tobytes()


def _decode_double_stream(data: bytes, count: int) -> List[float]:
    return [_F64.unpack_from(data, i * 8)[0] for i in range(count)]


def _encode_bool_stream(values: Sequence[bool]) -> Tuple[str, bytes]:
    return "bitpack", _pack_bits(bytes(map(bool, values)))


def _decode_bool_stream(data: bytes, count: int) -> List[bool]:
    return [bool(data[i // 8] & (1 << (i % 8))) for i in range(count)]


# ---------------------------------------------------------------------------
# stripes
# ---------------------------------------------------------------------------

@dataclass
class ColumnChunk:
    """One column's streams within a stripe.  ``has_nulls`` is ORC's
    per-chunk ``hasNull`` statistic: the encoder needs it to choose the
    bitmap, and the file keeps it for ``scan_batch``'s ``no_nulls``."""

    encoding: str
    null_bitmap: bytes
    compressed: bytes
    uncompressed_bytes: int
    has_nulls: bool = True

    @property
    def stored_bytes(self) -> int:
        return len(self.compressed) + len(self.null_bitmap)


@dataclass
class Stripe:
    """One stripe's encoded column chunks; immutable once built, so the
    byte total is summed once."""

    row_start: int
    row_count: int
    chunks: Dict[str, ColumnChunk]
    stats: Dict[str, Tuple[object, object]]
    total_bytes: int = field(init=False)

    def __post_init__(self):
        self.total_bytes = (
            sum(chunk.stored_bytes for chunk in self.chunks.values())
            + _STRIPE_FOOTER_BYTES
        )

    def bytes_for_columns(self, columns: Optional[Sequence[str]]) -> int:
        if columns is None:
            return self.total_bytes
        wanted = {name.lower() for name in columns}
        selected = sum(
            chunk.stored_bytes
            for name, chunk in self.chunks.items()
            if name.lower() in wanted
        )
        return selected + _STRIPE_FOOTER_BYTES

    def may_contain(self, conjuncts: Optional[Sequence[StatsConjunct]]) -> bool:
        if not conjuncts:
            return True
        for conjunct in conjuncts:
            column = conjunct[0].lower()
            if column not in self.stats:
                continue
            minimum, maximum = self.stats[column]
            if not evaluate_stats_conjunct(conjunct, minimum, maximum):
                return False
        return True


class StripeRead(NamedTuple):
    """One stripe a scan reads: rows ``lo`` to ``hi`` (file positions)
    of stripe ``index``, charged ``charge`` encoded bytes."""

    index: int
    lo: int
    hi: int
    charge: float


_TEXT_TYPES = (DataType.STRING, DataType.DATE)


def _encode_column(
    dtype: DataType, values: Sequence[object]
) -> Tuple[ColumnChunk, Tuple[object, object]]:
    """One stripe column -> its chunk and its (min, max) statistics."""
    distinct = None
    if isinstance(values, array):
        has_nulls = False  # a typed buffer cannot hold NULLs: no scan
    elif dtype in _TEXT_TYPES:
        # the dictionary decision needs the distinct values anyway; they
        # also answer "any NULL?" and bound the stats without three more
        # passes of string comparisons over the column
        distinct = set(values)
        has_nulls = None in distinct
        distinct.discard(None)
    else:
        has_nulls = None in values
    if has_nulls:
        null_bitmap = _encode_null_bitmap(values)
        present = [value for value in values if value is not None]
    else:
        null_bitmap = bytes((len(values) + 7) // 8)
        present = values
    domain = present if distinct is None else distinct
    stats = (min(domain), max(domain)) if len(domain) else (None, None)
    if dtype in (DataType.INT, DataType.BIGINT):
        encoding, raw = _encode_int_stream(present)
    elif dtype is DataType.DOUBLE:
        encoding, raw = _encode_double_stream(present)
    elif dtype in _TEXT_TYPES:
        encoding, raw = _encode_string_stream(present, distinct)
    elif dtype is DataType.BOOLEAN:
        encoding, raw = _encode_bool_stream(present)
    else:
        raise StorageError(f"ORC cannot encode {dtype}")
    compressed = zlib.compress(raw, 6)
    if len(compressed) >= len(raw):
        compressed = raw  # ORC stores incompressible chunks uncompressed
    chunk = ColumnChunk(encoding, null_bitmap, compressed, len(raw), has_nulls)
    return chunk, stats


def _decode_column(dtype: DataType, chunk: ColumnChunk, count: int) -> List[object]:
    nulls = _decode_null_bitmap(chunk.null_bitmap, count)
    present_count = count - sum(nulls)
    raw = chunk.compressed
    if chunk.uncompressed_bytes != len(raw):
        raw = zlib.decompress(raw)
    if dtype in (DataType.INT, DataType.BIGINT):
        present = _decode_int_stream(chunk.encoding, raw, present_count)
    elif dtype is DataType.DOUBLE:
        present = _decode_double_stream(raw, present_count)
    elif dtype in _TEXT_TYPES:
        present = _decode_string_stream(chunk.encoding, raw, present_count)
    elif dtype is DataType.BOOLEAN:
        present = _decode_bool_stream(raw, present_count)
    else:
        raise StorageError(f"ORC cannot decode {dtype}")
    iterator = iter(present)
    return [None if is_null else next(iterator) for is_null in nulls]


# ---------------------------------------------------------------------------
# the stored file
# ---------------------------------------------------------------------------

class OrcStoredFile(StoredFile):
    """Stripe-organized columnar file with stats and real encoded streams."""

    def __init__(self, schema: Schema, columns: Iterable[Sequence],
                 size: int, stripe_rows: int):
        super().__init__(schema, size)
        self.stripe_rows = stripe_rows
        bounds = [
            (start, min(start + stripe_rows, size))
            for start in range(0, size, stripe_rows)
        ]
        # decoded column streams, one list-of-columns per stripe: slices
        # of the columns the file was built from, each in pack_column
        # normal form (a NULL-bearing column still packs in the stripes
        # that hold no NULL).  They are what gets encoded AND what the
        # columnar scan (scan_batch) serves; the file keeps no other copy
        # of its contents.
        self._stripe_columns: List[List[Sequence]] = [[] for _ in bounds]
        chunks: List[Dict[str, ColumnChunk]] = [{} for _ in bounds]
        stats: List[Dict[str, Tuple[object, object]]] = [{} for _ in bounds]
        # column-major, so *columns* is walked once and a whole-file
        # column can be dropped as soon as its stripes are cut
        for spec, column in zip(schema.columns, columns):
            name = spec.name.lower()
            for index, (start, stop) in enumerate(bounds):
                values = pack_column(column[start:stop])
                self._stripe_columns[index].append(values)
                chunks[index][name], stats[index][name] = _encode_column(
                    spec.dtype, values
                )
        self.stripes: List[Stripe] = [
            Stripe(start, stop - start, stripe_chunks, stripe_stats)
            for (start, stop), stripe_chunks, stripe_stats
            in zip(bounds, chunks, stats)
        ]
        # per stripe, in schema order: the chunk holds no NULL
        self._stripe_no_nulls: List[List[bool]] = [
            [not chunk.has_nulls for chunk in stripe_chunks.values()]
            for stripe_chunks in chunks
        ]
        self._total_bytes = (
            sum(stripe.total_bytes for stripe in self.stripes) + _FILE_FOOTER_BYTES
        )

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def bytes_for_range(self, row_start: int, row_count: int) -> int:
        """Bytes for a row range; partially-overlapped stripes charge
        proportionally (sampled rows stand for many logical rows, so a
        "split" may cover a fraction of one encoded stripe)."""
        row_end = row_start + row_count
        total = 0.0
        for stripe in self.stripes:
            if stripe.row_start >= row_end:
                break
            overlap = self._overlap_fraction(stripe, row_start, row_end)
            if overlap > 0:
                total += stripe.total_bytes * overlap
        return int(total)

    @staticmethod
    def _overlap_fraction(stripe: Stripe, row_start: int, row_end: int) -> float:
        if stripe.row_count == 0:
            return 0.0
        lo = max(stripe.row_start, row_start)
        hi = min(stripe.row_start + stripe.row_count, row_end)
        return max(0, hi - lo) / stripe.row_count

    def walk_stripes(
        self,
        row_start: int,
        row_count: int,
        columns: Optional[Sequence[str]] = None,
        stats_conjuncts: Optional[Sequence[StatsConjunct]] = None,
    ) -> Tuple[List[StripeRead], int]:
        """The one stripe walk of a scan: the stripes overlapping the
        range that survive *stats_conjuncts*, in file order, each with
        its byte charge for *columns* (partially-overlapped stripes
        charge proportionally), and the row count the conjuncts
        skipped.  Every scan (:meth:`_read`) and the LLAP engine's
        stripe cache walk the range through here, so the bytes a cache
        sees are the bytes a scan charges."""
        reads: List[StripeRead] = []
        skipped = 0
        row_end = row_start + row_count
        for index, stripe in enumerate(self.stripes):
            if stripe.row_start >= row_end:
                break
            lo = max(stripe.row_start, row_start)
            hi = min(stripe.row_start + stripe.row_count, row_end)
            if hi <= lo:
                continue
            if not stripe.may_contain(stats_conjuncts):
                skipped += hi - lo
                continue  # predicate pushdown: stripe eliminated via stats
            overlap = self._overlap_fraction(stripe, row_start, row_end)
            reads.append(StripeRead(
                index, lo, hi, stripe.bytes_for_columns(columns) * overlap
            ))
        return reads, skipped

    def _read(self, row_start, row_count, positions, columns,
              stats_conjuncts) -> ScanResult:
        """Slices of the decoded streams of the surviving stripes, for
        the columns at *positions* (typed ``array`` slices stay typed);
        the other positions stay absent, never sliced or joined."""
        parts: Dict[int, List[Sequence]] = {position: [] for position in positions}
        facts: List[List[bool]] = []
        size = 0
        bytes_read = 0.0
        reads, skipped = self.walk_stripes(
            row_start, row_count, columns, stats_conjuncts
        )
        for read in reads:
            bytes_read += read.charge
            decoded = self._stripe_columns[read.index]
            base = self.stripes[read.index].row_start
            for position, pieces in parts.items():
                pieces.append(decoded[position][read.lo - base:read.hi - base])
            facts.append(self._stripe_no_nulls[read.index])
            size += read.hi - read.lo
        width = len(self.schema)
        out_columns: List[Optional[Sequence]] = [None] * width
        for position, pieces in parts.items():
            out_columns[position] = concat_columns(pieces)
        no_nulls = and_no_nulls(facts) or [True] * width  # no rows: vacuous
        return ScanResult(
            batch=ColumnBatch(out_columns, size, None, no_nulls),
            bytes_read=int(bytes_read),
            rows_skipped=skipped,
        )

    def stripe_cache_key(
        self,
        path: str,
        stripe_index: int,
        columns: Optional[Sequence[str]] = None,
    ) -> Tuple[str, int, Optional[Tuple[str, ...]]]:
        """Stable identity of one stripe's decoded streams for node-local
        caching (the LLAP engine's columnar cache).

        Keyed by *(file path, stripe row offset, requested-column
        signature)*: the path names the file, the row offset names the
        stripe within it, and the column signature distinguishes
        projections (ORC caches column chunks, not whole rows).  Cache
        consumers must additionally verify the stored-file identity —
        a path rewritten after DROP/INSERT OVERWRITE reuses keys but
        not data (see ``repro.engines.llap.cache``).
        """
        stripe = self.stripes[stripe_index]
        if columns is None:
            signature = None
        else:
            signature = tuple(sorted({name.lower() for name in columns}))
        return (path, stripe.row_start, signature)

    def decoded_stripe_columns(self, stripe_index: int) -> List[Sequence]:
        """One stripe's decoded per-column value lists (shared,
        read-only).  This is the object a daemon cache retains so a hit
        skips both the simulated disk read and the decode work."""
        return self._stripe_columns[stripe_index]

    def decode_stripe(self, stripe_index: int) -> List[Row]:
        """Fully decode one stripe from its encoded streams (round-trip
        path; the fast path above serves rows from memory)."""
        stripe = self.stripes[stripe_index]
        columns = []
        for column in self.schema.columns:
            chunk = stripe.chunks[column.name.lower()]
            columns.append(_decode_column(column.dtype, chunk, stripe.row_count))
        return [tuple(column[i] for column in columns) for i in range(stripe.row_count)]


class OrcFormat(FileFormat):
    name = "orc"
    stored_type = OrcStoredFile

    def __init__(self, stripe_rows: int = 1024):
        if stripe_rows < 1:
            raise StorageError("stripe_rows must be >= 1")
        self.stripe_rows = stripe_rows

    def from_columns(
        self, schema: Schema, columns: Iterable[Sequence], size: int
    ) -> OrcStoredFile:
        return OrcStoredFile(schema, columns, size, self.stripe_rows)


register_format(OrcFormat())
