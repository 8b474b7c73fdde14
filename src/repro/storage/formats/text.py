"""Hive delimited-text format (LazySimpleSerDe, ctrl-A separated).

Row-oriented: every scan pays for the full width of every row in the
range — no column pruning, no pushdown — which is exactly why the paper's
Table II shows ORCFile beating Text by ~22 %.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.common.rows import ColumnBatch, Schema, coerce_value
from repro.storage.formats.base import (
    FileFormat,
    Row,
    RowMajorStoredFile,
    register_format,
)

FIELD_DELIMITER = "\x01"


def encode_row(row: Row) -> str:
    """Render one row as a ctrl-A delimited line (without newline)."""
    return FIELD_DELIMITER.join(r"\N" if value is None else str(value) for value in row)


def decode_row(line: str, schema: Schema) -> Row:
    """Parse one delimited line back into typed values."""
    pieces = line.split(FIELD_DELIMITER)
    values = []
    for position, column in enumerate(schema.columns):
        text = pieces[position] if position < len(pieces) else None
        values.append(coerce_value(text, column.dtype))
    return tuple(values)


_ASCII_RENDERED = {int, float, bool}  # str() gives digits, signs, letters


def _field_sizes(column: Sequence, types: Optional[set]) -> Iterator[int]:
    """UTF-8 byte length of every value of one column as
    :func:`encode_row` renders it (``\\N`` for NULL) — a lazy C-level
    pass, so sizing a file holds no per-column list of sizes.  *types*
    is the column's set of value types (``None`` for a typed buffer)."""
    if types is None or types <= _ASCII_RENDERED:
        return map(len, map(str, column))
    if types == {str}:
        texts = column
    elif type(None) in types:
        texts = [r"\N" if value is None else str(value) for value in column]
    else:
        texts = list(map(str, column))
    # one isascii pass over the concatenation beats one per element;
    # all-ASCII columns (the norm) then size as bare C-level lengths
    if "".join(texts).isascii():
        return map(len, texts)
    return map(len, map(str.encode, texts))


def text_size(table: Union[ColumnBatch, Sequence[Row]]) -> int:
    """Encoded bytes of *table* as one text file, without building it.
    The TPC-H loader scales a non-Text table by it over the table's
    columns (a dense :class:`~repro.common.rows.ColumnBatch`); terasort
    sizes its Text table by it over row tuples (transposed a column at a
    time).  The same field sizes as
    :class:`TextStoredFile`, summed a column at a time, so no line is
    ever laid out."""
    if isinstance(table, ColumnBatch):
        columns: Iterable[Sequence] = table.columns
        size = table.size
    else:
        columns, size = zip(*table), len(table)
    total = width = 0
    for column in columns:
        types = None if isinstance(column, array) else set(map(type, column))
        total += sum(_field_sizes(column, types))
        width += 1
    return total + size * max(1, width)  # delimiters + the newline


class TextStoredFile(RowMajorStoredFile):
    """Columns plus a prefix sum of line sizes for O(1) range byte counts.

    A line's size is that of ``encode_row(row).encode("utf-8")`` plus
    the newline, summed column-wise: field bytes per column, then one
    delimiter between fields."""

    def _row_sizes(self, kinds) -> Iterator[int]:
        # delimiters + the newline (a zero-width line is the newline)
        framing = repeat(max(1, len(self.columns)), self.row_count)
        return map(sum, zip(framing, *map(_field_sizes, self.columns, kinds)))


class TextFormat(FileFormat):
    name = "text"
    stored_type = TextStoredFile


register_format(TextFormat())
