"""Row model: Hive-style primitive types, columns and schemas.

Rows travel through the operator pipeline as plain Python tuples; a
:class:`Schema` describes the shape.  Types matter in three places:

* text/ORC readers coerce strings into typed values (:func:`coerce_value`),
* the expression evaluator uses the type for arithmetic/comparison rules,
* serde (:mod:`repro.common.kv`) picks a wire encoding per type so the
  simulated byte volumes match what Hive's Writables would produce.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError, SemanticError


class DataType(enum.Enum):
    """Primitive Hive column types supported by the reproduction."""

    INT = "int"
    BIGINT = "bigint"
    DOUBLE = "double"
    STRING = "string"
    DATE = "date"  # stored as ISO-8601 string; comparisons are lexical
    BOOLEAN = "boolean"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        normalized = name.strip().lower()
        aliases = {
            "integer": "int",
            "long": "bigint",
            "float": "double",
            "decimal": "double",
            "varchar": "string",
            "char": "string",
            "bool": "boolean",
            "timestamp": "date",
        }
        normalized = aliases.get(normalized, normalized)
        for member in cls:
            if member.value == normalized:
                return member
        raise SemanticError(f"unknown column type: {name!r}")

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.BIGINT, DataType.DOUBLE)


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: DataType

    def __str__(self) -> str:
        return f"{self.name} {self.dtype.value}"


class Schema:
    """An ordered list of columns with O(1) name lookup.

    >>> schema = Schema.parse("id int, name string")
    >>> schema.index_of("name")
    1
    """

    def __init__(self, columns: Sequence[Column]):
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index = {}
        for position, column in enumerate(self.columns):
            key = column.name.lower()
            if key in self._index:
                raise SemanticError(f"duplicate column name: {column.name}")
            self._index[key] = position

    @classmethod
    def parse(cls, text: str) -> "Schema":
        """Build a schema from ``"name type, name type"`` shorthand."""
        columns: List[Column] = []
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            parts = piece.split()
            if len(parts) != 2:
                raise SemanticError(f"bad column spec: {piece!r}")
            columns.append(Column(parts[0], DataType.from_name(parts[1])))
        return cls(columns)

    @property
    def names(self) -> List[str]:
        return [column.name for column in self.columns]

    @property
    def types(self) -> List[DataType]:
        return [column.dtype for column in self.columns]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SemanticError(
                f"column {name!r} not found in schema ({', '.join(self.names)})"
            ) from None

    def has(self, name: str) -> bool:
        return name.lower() in self._index

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def project(self, names: Sequence[str]) -> "Schema":
        return Schema([self.column(name) for name in names])

    def concat(self, other: "Schema", prefix: str = "") -> "Schema":
        """Schema for a join output; *prefix* disambiguates clashes."""
        merged = list(self.columns)
        taken = {column.name.lower() for column in merged}
        for column in other.columns:
            name = column.name
            if name.lower() in taken:
                name = f"{prefix}{name}" if prefix else f"{name}_r"
            merged.append(Column(name, column.dtype))
            taken.add(name.lower())
        return Schema(merged)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __repr__(self) -> str:
        inner = ", ".join(str(column) for column in self.columns)
        return f"Schema({inner})"


_NULL_TOKENS = ("", r"\N", "NULL", "null")


def coerce_value(text: Optional[str], dtype: DataType):
    """Coerce a delimited-text field into a typed Python value.

    Empty strings and ``\\N`` become ``None`` (Hive's text-serde behaviour)
    except for STRING columns, where the empty string survives.
    """
    if text is None:
        return None
    if dtype is DataType.STRING:
        return None if text == r"\N" else text
    if dtype is DataType.DATE:
        return None if text in _NULL_TOKENS else text
    if text in _NULL_TOKENS:
        return None
    try:
        if dtype in (DataType.INT, DataType.BIGINT):
            return int(text)
        if dtype is DataType.DOUBLE:
            return float(text)
        if dtype is DataType.BOOLEAN:
            return text.strip().lower() in ("true", "1")
    except ValueError:
        return None  # Hive's lazy serde yields NULL on malformed fields
    raise SemanticError(f"cannot coerce to {dtype}")


def compare_values(left, right) -> int:
    """Three-way comparison with Hive NULL semantics for ORDER BY.

    ``None`` sorts first (Hive's NULLS FIRST for ascending order).  Mixed
    numeric types compare numerically.
    """
    if left is None and right is None:
        return 0
    if left is None:
        return -1
    if right is None:
        return 1
    if isinstance(left, bool) or isinstance(right, bool):
        left, right = bool(left), bool(right)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def pack_column(values) -> Sequence:
    """Pack one column into a typed buffer when its values allow it.

    Columns whose every value is a plain ``int`` become ``array('q')``
    and all-``float`` columns become ``array('d')`` — contiguous C
    buffers.  Any other column (NULLs, strings, dates, booleans —
    ``bool`` is an ``int`` subclass but must keep its ``repr``) stays a
    plain list, so
    values read back from a packed column are bit-identical to the list
    layout.  Kernels only index/iterate columns, which both layouts
    support identically.  A typed buffer comes back as it is: this is
    the *normal form* stored files keep their columns in.
    """
    if isinstance(values, array):
        return values
    if type(values) not in (list, tuple):
        values = list(values)
    if values:
        first = type(values[0])
        # the type scan is one C-level pass, not a generator step per value
        if first is int:
            if set(map(type, values)) == {int}:
                try:
                    return array("q", values)
                except OverflowError:
                    pass  # beyond 64-bit: keep Python ints
        elif first is float:
            if set(map(type, values)) == {float}:
                return array("d", values)
    return values if type(values) is list else list(values)


def concat_columns(pieces: List[Sequence]) -> Optional[Sequence]:
    """Join slices of one column, preserving typed buffers when every
    piece packed to the same typecode.  A single piece comes back as it
    is (columns are read-only once built, so sharing is safe).  Pieces
    of an *absent* column (see :class:`ColumnBatch`) are all ``None`` and
    so is their concatenation; absent in some pieces only is a bug."""
    if not pieces:
        return []
    if len(pieces) == 1:
        return pieces[0]
    if None in pieces:
        if pieces.count(None) != len(pieces):
            raise ExecutionError("column absent from some pieces only")
        return None
    first = pieces[0]
    if isinstance(first, array) and all(
        isinstance(piece, array) and piece.typecode == first.typecode
        for piece in pieces[1:]
    ):
        out = array(first.typecode)
        for piece in pieces:
            out.extend(piece)
        return out
    out_list: list = []
    for piece in pieces:
        out_list.extend(piece)
    return out_list


def take_columns(
    columns: Sequence[Optional[Sequence]], sel: Sequence[int],
) -> List[Optional[Sequence]]:
    """The *sel* positions of every column.  An engine window (a
    ``range`` with step 1) is sliced; any other selection is gathered
    through one shared ``itemgetter`` — a single C call per column, which
    yields a tuple (typed buffers are rebuilt typed).  An absent column
    (``None``, see :class:`ColumnBatch`) stays absent."""
    if type(sel) is range and sel.step == 1:
        return [None if column is None else column[sel.start:sel.stop]
                for column in columns]
    if len(sel) > 1:
        gather = itemgetter(*sel)
    else:  # itemgetter returns a tuple only from two indices on
        def gather(column):
            return tuple(map(column.__getitem__, sel))
    return [
        None if column is None
        else array(column.typecode, gather(column)) if isinstance(column, array)
        else gather(column)
        for column in columns
    ]


def and_no_nulls(
    facts: Sequence[Optional[Sequence[bool]]],
) -> Optional[List[bool]]:
    """``no_nulls`` of pieces laid end to end: a column is NULL-free
    only if it is in every piece, and nothing is known once one piece
    promises nothing (or there is no piece to ask)."""
    if not facts or None in facts:
        return None
    return list(map(all, zip(*facts)))


class ColumnBatch:
    """A batch of rows stored column-wise (Hive's VectorizedRowBatch).

    ``columns`` holds one sequence per column, all of length ``size`` —
    a typed ``array`` buffer for homogeneous numeric columns (see
    :func:`pack_column`), a plain Python list otherwise; NULLs are
    ``None`` entries inside list columns.  ``sel`` is the selection
    vector: ``None`` means every row 0..size-1 is live (a *dense*
    batch), otherwise only the listed positions are.  Vectorized filters
    narrow ``sel`` instead of copying column data; rows materialize back
    into tuples only for row readers (:meth:`to_rows`) — a FileSink
    keeps the live rows as columns (:meth:`dense`) and the stored file
    is built from those, a ReduceSink gathers them into column runs.

    ``no_nulls`` is VectorizedRowBatch's ``noNulls``, one flag per
    column, and what lets a kernel drop its NULL guards.  The contract:
    **absent means nullable; a present ``True`` is a promise** that the
    column holds no ``None`` at any position, live or not.  ``None`` (no
    facts at all) and a ``False`` entry are always safe; whoever builds
    a batch passes ``True`` only for what it knows for free — a typed
    buffer, a stored file's write-time type scan, an operator's own
    output.  Selections, windows and gathers keep the facts (a subset of
    a NULL-free column is NULL-free); :meth:`concat` ANDs them.

    A position of ``columns`` may hold ``None`` instead of a sequence:
    an **absent column — the plan promised nobody reads it**.  A scan
    leaves out what its map chain's ``ScanHints.columns`` does not name
    (``StoredFile.scan_batch``); width, ``size`` and ``no_nulls`` (which
    still describes the stored column) are those of the full-width
    batch.  The helpers that move whole batches — selections, windows,
    :meth:`dense`, :meth:`concat`, :func:`take_columns`, a pure-reference
    Select, a map-join's big-side gather — carry an absent column along
    as ``None``; anything that reads one fails: a kernel subscripts
    ``None`` (``TypeError``), :meth:`to_rows` and a stored file's
    constructor refuse.  There is no placeholder value to read by
    accident.

    ``len()`` and slicing deliberately mirror a row list over the
    *unfiltered* batch so the engines' byte-proportional batching
    (``_make_batches``) works identically on either representation.
    """

    __slots__ = ("columns", "size", "sel", "no_nulls")

    def __init__(self, columns: List[Sequence], size: int,
                 sel: Optional[List[int]] = None,
                 no_nulls: Optional[Sequence[bool]] = None):
        self.columns = columns
        self.size = size
        self.sel = sel
        self.no_nulls = no_nulls

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[object, ...]],
                  width: Optional[int] = None) -> "ColumnBatch":
        """Transpose row tuples into a dense batch (Text/Sequence adapter)."""
        if not rows:
            return cls([[] for _ in range(width or 0)], 0)
        return cls([pack_column(column) for column in zip(*rows)], len(rows))

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def live_count(self) -> int:
        """Rows surviving the selection vector."""
        return self.size if self.sel is None else len(self.sel)

    def with_selection(self, sel: Optional[List[int]]) -> "ColumnBatch":
        """Same columns, new selection vector (no data copied)."""
        return ColumnBatch(self.columns, self.size, sel, self.no_nulls)

    def take_first(self, count: int) -> "ColumnBatch":
        """Keep only the first *count* live rows (batch-boundary LIMIT)."""
        if count >= self.live_count:
            return self
        if self.sel is None:
            return self.with_selection(list(range(count)))
        return self.with_selection(self.sel[:count])

    def to_rows(self) -> List[Tuple[object, ...]]:
        """Late materialization: selected rows as plain tuples (a
        zero-width batch still has ``live_count`` rows: empty tuples)."""
        if not self.columns:
            return [()] * self.live_count
        if None in self.columns:
            raise ExecutionError("cannot make rows of a batch with absent columns")
        return list(zip(*self.dense().columns))

    def dense(self) -> "ColumnBatch":
        """The live rows as a batch without a selection vector.  An
        engine window (a ``range`` with step 1) is sliced, any other
        selection gathered (typed buffers stay typed either way); an
        already dense batch comes back as it is."""
        sel = self.sel
        if sel is None:
            return self
        return ColumnBatch(
            take_columns(self.columns, sel), len(sel), None, self.no_nulls
        )

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """One dense batch holding the rows of the dense *batches*, in
        order.  Empty batches are skipped whatever their width (a sink
        that received nothing has none); with nothing left the result is
        the zero-width empty batch."""
        batches = [batch for batch in batches if batch.size]
        if len(batches) == 1:
            return batches[0]
        return cls(
            [concat_columns(pieces)
             for pieces in zip(*[batch.columns for batch in batches])],
            sum(batch.size for batch in batches),
            None,
            and_no_nulls([batch.no_nulls for batch in batches]),
        )

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, item):
        """Dense slice (engine batching); mirrors ``rows[a:b]``.

        Returns a zero-copy *window*: the columns are shared and the
        window is expressed as a ``range`` selection vector, so slicing
        a scan batch into engine-sized chunks copies nothing.  The
        window's ``len()`` is the window length (chunk-proportional byte
        accounting), which is why windows cannot be sliced again —
        their positions index the original columns.
        """
        if not isinstance(item, slice):
            raise ExecutionError("ColumnBatch indexing supports slices only")
        if self.sel is not None:
            raise ExecutionError("cannot slice a batch with a selection vector")
        start, stop, step = item.indices(self.size)
        if step != 1:
            raise ExecutionError("ColumnBatch slices must be contiguous")
        if start == 0 and stop == self.size:
            return self
        length = max(0, stop - start)
        return ColumnBatch(self.columns, length, range(start, stop), self.no_nulls)

    def __repr__(self) -> str:
        return (
            f"ColumnBatch(width={self.width}, size={self.size}, "
            f"live={self.live_count})"
        )


#: rows a :class:`ColumnBuilder` holds as tuples before moving them
#: into its columns
_CHUNK_ROWS = 4096


class ColumnBuilder:
    """A table drawn row by row and held as columns.

    :meth:`append` takes one row tuple; every ``_CHUNK_ROWS`` rows the
    pending tuples are moved into the columns, so a generator holds at
    most one chunk of tuples.  The columns are in :func:`pack_column`
    normal form throughout: a column stays a typed buffer while every
    chunk packs to the same typecode and turns into a list the first
    time one does not — exactly what packing the whole column at once
    gives."""

    def __init__(self, width: int):
        self.columns: List[Sequence] = [[] for _ in range(width)]
        self.size = 0
        self._pending: List[Tuple[object, ...]] = []

    def append(self, row: Tuple[object, ...]) -> None:
        pending = self._pending
        pending.append(row)
        if len(pending) >= _CHUNK_ROWS:
            self._flush()

    def _flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        columns = self.columns
        for position, values in enumerate(zip(*pending)):
            piece = pack_column(values)
            column = columns[position]
            if not self.size:
                columns[position] = piece
                continue
            if isinstance(column, array):
                if isinstance(piece, array) and piece.typecode == column.typecode:
                    column.extend(piece)
                    continue
                column = columns[position] = column.tolist()
            column.extend(piece)
        self.size += len(pending)
        pending.clear()

    def finish(self) -> ColumnBatch:
        """The rows appended so far as a dense batch over the builder's
        own columns."""
        self._flush()
        return ColumnBatch(self.columns, self.size)


def row_text_size(row: Sequence[object], delimiter: str = "\x01") -> int:
    """Byte size of a row in Hive's delimited-text encoding."""
    total = len(delimiter) * max(0, len(row) - 1) + 1  # newline
    for value in row:
        if value is None:
            total += 2  # \N
        else:
            total += len(str(value))
    return total
