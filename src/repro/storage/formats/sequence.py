"""Hadoop SequenceFile-style binary row format.

HiBench's Hive workloads use sequence files by default (paper §V-B).  The
encoding is the tagged binary serde from :mod:`repro.common.kv` applied to
each row (empty key, row as value) plus a small per-record header —
the same ballpark overhead a real ``SequenceFile<NullWritable, Text>``
carries.  Like Text it is row-oriented: no pruning, no pushdown.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List

from repro.common.kv import _FIXED_FIELD_SIZES, fields_size
from repro.storage.formats.base import (
    FileFormat,
    Row,
    RowMajorStoredFile,
    register_format,
)

_RECORD_HEADER_BYTES = 8  # record length + key length words


def record_size(row: Row) -> int:
    """Encoded size of one row as a sequence-file record."""
    # empty key tuple contributes exactly its arity byte
    return _RECORD_HEADER_BYTES + 1 + fields_size(row)


def _column_size_contribution(column, types):
    """Per-row encoded sizes of one column, exploiting type homogeneity.
    *types* is the column's set of value types (``None`` for a typed
    buffer).

    Returns an ``int`` when every row pays the same fixed tag size, the
    per-row sizes (an iterable) for string-bearing columns, or ``None`` when
    a subclassed/exotic type means the per-row ``record_size`` fallback
    must size the whole file.  The size computations are C-level passes
    — no per-field Python dispatch.
    """
    if types is None:  # packed ints or doubles: one fixed tag
        return _FIXED_FIELD_SIZES[float if column.typecode == "d" else int]
    if types <= _FIXED_FIELD_SIZES.keys():
        if len(types) == 1:
            return _FIXED_FIELD_SIZES[next(iter(types))]
        fixed = _FIXED_FIELD_SIZES
        return [fixed[type(value)] for value in column]
    if types == {str}:
        # one isascii pass over the concatenation beats one per element;
        # all-ASCII columns (the norm) then size as bare C-level lengths
        if "".join(column).isascii():
            return map((3).__add__, map(len, column))  # tag + 2-byte length
        return [
            3 + (len(value) if value.isascii() else len(value.encode("utf-8")))
            for value in column
        ]
    if types <= {str, type(None), bool, int, float}:
        fixed = _FIXED_FIELD_SIZES
        return [
            3 + (len(value) if value.isascii() else len(value.encode("utf-8")))
            if type(value) is str else fixed[type(value)]
            for value in column
        ]
    return None


class SequenceStoredFile(RowMajorStoredFile):
    def _row_sizes(self, kinds) -> Iterable[int]:
        # INSERT output tables re-encode on every write, so the build
        # sizes every row; doing it column-wise turns the per-row
        # per-field dispatch into a few C-level passes.  The sizes are
        # identical to per-row record_size() by construction.
        constant = _RECORD_HEADER_BYTES + 2  # record header + key + row arity
        varying: List[Iterable[int]] = []
        for column, types in zip(self.columns, kinds):
            contribution = _column_size_contribution(column, types)
            if contribution is None:  # exotic types: row-by-row fallback
                return map(record_size, zip(*self.columns))
            if isinstance(contribution, int):
                constant += contribution
            else:
                varying.append(contribution)
        if varying:
            return map(sum, zip(repeat(constant), *varying))
        return repeat(constant, self.row_count)


class SequenceFormat(FileFormat):
    name = "sequence"
    stored_type = SequenceStoredFile


register_format(SequenceFormat())
