"""Format-neutral interfaces for stored tables.

A :class:`StoredFile` owns the contents of one HDFS file — as columns —
plus everything the cost model needs: the *encoded* byte size (computed
by really encoding the values) and, for columnar formats,
per-stripe/per-column sub-sizes so that column pruning and predicate
pushdown translate into fewer bytes read.

A file is read one way: each format has one read core (``_read``) that
serves a row range from its columns, and every reader goes through it —
the engines' :meth:`StoredFile.scan_batch`, the reference executor's
full-width :meth:`StoredFile.scan` and the row fetch
(:attr:`StoredFile.rows`).  :class:`ScanResult` is what a scan gets
back: the surviving rows as a dense column batch (possibly a superset
that still needs residual filtering) and the number of encoded bytes a
real reader would have pulled off the disk for them.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.common.errors import SemanticError, StorageError
from repro.common.rows import ColumnBatch, Schema, pack_column
from repro.obs import get_metrics

Row = Tuple[object, ...]

#: Conjunctive comparison usable against stripe min/max statistics:
#: (column_name, op, literal) with op in {'=', '<', '<=', '>', '>=' }.
StatsConjunct = Tuple[str, str, object]


@dataclass
class ScanResult:
    """Rows surviving a (possibly pushed-down) scan, as a dense
    :class:`~repro.common.rows.ColumnBatch`, plus the bytes charged."""

    batch: ColumnBatch
    bytes_read: int
    rows_skipped: int = 0  # rows eliminated before deserialization (ORC)


class StoredFile(abc.ABC):
    """Encoded representation of a row block inside one HDFS file.

    Columns are the one representation a file is built from and kept
    in: a constructor takes ``(schema, columns, size)`` — one indexable
    sequence of *size* values per schema column, in any container,
    walked once in schema order — and keeps what it needs of them in
    :func:`~repro.common.rows.pack_column` normal form, so a scan hands
    kernels typed buffers.  A file holds no row tuples: a row reader
    (:attr:`rows`, ``HDFS.dir_rows``, the result fetch of a SELECT)
    derives exactly the rows it reads, every time, and nothing keeps
    them — a scan and :attr:`row_count` never derive any.
    """

    def __init__(self, schema: Schema, size: int):
        self.schema = schema
        self.row_count = size

    @property
    def rows(self) -> List[Row]:
        """The whole file as row tuples, derived on every read."""
        return self._derive_rows(0, self.row_count)

    def _derive_rows(self, row_start: int, row_end: int) -> List[Row]:
        """Rows ``row_start`` to ``row_end`` (exclusive) as tuples, built
        from the columns that hold them."""
        whole = self._read(row_start, row_end - row_start,
                           range(len(self.schema)), None, None)
        return whole.batch.to_rows()

    @property
    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Encoded size of the whole file in bytes (un-scaled)."""

    def scan(
        self,
        row_start: int,
        row_count: int,
        columns: Optional[Sequence[str]] = None,
        stats_conjuncts: Optional[Sequence[StatsConjunct]] = None,
    ) -> ScanResult:
        """The reference executor's read of a row range: the batch of
        :meth:`scan_batch` at the file's **full width** whatever
        *columns* names (the row operators read positions, not names).
        *columns* still decides the byte charge and must name columns
        the file has; stripes are skipped as for :meth:`scan_batch`."""
        self._positions(columns)
        return self._read(row_start, row_count, range(len(self.schema)),
                          columns, stats_conjuncts)

    def scan_batch(
        self,
        row_start: int,
        row_count: int,
        columns: Optional[Sequence[str]] = None,
        stats_conjuncts: Optional[Sequence[StatsConjunct]] = None,
    ) -> ScanResult:
        """The engines' read of a row range, served from the file's
        columns with no intermediate row tuples.

        *columns* lists the columns the query needs (``None`` = all):
        only those are materialized — every other position of the
        batch holds ``None``, an absent column nobody may read — and
        columnar formats charge only those streams (a row format still
        pays for the full row width).  ``no_nulls`` covers every column
        either way.  *stats_conjuncts* allow stripe-level elimination
        via min/max statistics (ORC).
        """
        positions = self._positions(columns)
        get_metrics().counter("storage.scan.columns_materialized").add(
            len(positions)
        )
        return self._read(row_start, row_count, positions, columns,
                          stats_conjuncts)

    @abc.abstractmethod
    def _read(
        self,
        row_start: int,
        row_count: int,
        positions: Sequence[int],
        columns: Optional[Sequence[str]],
        stats_conjuncts: Optional[Sequence[StatsConjunct]],
    ) -> ScanResult:
        """The format's one read core: the rows of the range that
        survive *stats_conjuncts*, with the schema positions *positions*
        materialized, charged as a reader of *columns* would be."""

    def _positions(self, columns: Optional[Sequence[str]]) -> Sequence[int]:
        """Schema positions, ascending, *columns* names (all for
        ``None``); a name the file does not have raises
        :class:`StorageError` (a hint computed from another schema must
        not silently read nothing)."""
        schema = self.schema
        if columns is None:
            return range(len(schema))
        try:
            return sorted(set(map(schema.index_of, columns)))
        except SemanticError as error:
            raise StorageError(
                f"scan names a column the file does not have: {error}"
            ) from None

    @abc.abstractmethod
    def bytes_for_range(self, row_start: int, row_count: int) -> int:
        """Encoded bytes covering a row range (used to size input splits)."""


class RowMajorStoredFile(StoredFile):
    """Shared shape of the row-oriented encodings (Text, Sequence): the
    whole file's columns in normal form plus a prefix sum of encoded row
    sizes (the subclass says what a row costs), so a range's bytes are
    one subtraction.  No pushdown, and pruning saves no byte: every scan
    returns the plain contiguous range and pays for its full width
    (:meth:`scan_batch` still leaves unread columns out of its batch).

    ``no_nulls`` (one flag per column, what :meth:`scan_batch` puts on
    its batches) falls out of the build: a typed buffer cannot hold a
    NULL, and a list column's value types are scanned once here, for the
    sizing and the flag alike."""

    def __init__(self, schema: Schema, columns: Iterable[Sequence], size: int):
        super().__init__(schema, size)
        if size:
            self.columns = [pack_column(column) for column in columns]
        else:  # an empty producer may not know the width
            self.columns = [[] for _ in range(len(schema))]
        # the type scan is one C-level pass per list column
        kinds = [
            None if isinstance(column, array) else set(map(type, column))
            for column in self.columns
        ]
        self.no_nulls = [
            types is None or type(None) not in types for types in kinds
        ]
        # a typed buffer like the columns: 8 bytes a row, not an int object
        self._offsets = array("q", accumulate(self._row_sizes(kinds), initial=0))

    @abc.abstractmethod
    def _row_sizes(self, kinds: List[Optional[set]]) -> Iterable[int]:
        """Encoded size of every row, in order, sized from
        ``self.columns`` in column-wise C-level passes.  *kinds* holds
        each list column's set of value types (``None`` for a typed
        buffer)."""

    @property
    def total_bytes(self) -> int:
        return self._offsets[-1]

    def bytes_for_range(self, row_start: int, row_count: int) -> int:
        row_end = min(row_start + row_count, self.row_count)
        row_start = min(row_start, self.row_count)
        return self._offsets[row_end] - self._offsets[row_start]

    def _read(self, row_start, row_count, positions, columns,
              stats_conjuncts) -> ScanResult:
        """Slices of the range out of the columns at *positions* —
        slicing a typed ``array`` yields a typed ``array``.  The charge
        ignores *columns* and *stats_conjuncts*: a row format reads
        whole rows."""
        row_end = min(row_start + row_count, self.row_count)
        start = min(row_start, self.row_count)
        out: List[Optional[Sequence]] = [None] * len(self.columns)
        for position in positions:
            out[position] = self.columns[position][start:row_end]
        return ScanResult(
            batch=ColumnBatch(out, row_end - start, None, self.no_nulls),
            bytes_read=self.bytes_for_range(row_start, row_count),
        )


class FileFormat(abc.ABC):
    """Factory turning columns (or, through :meth:`build`, rows) into a
    :class:`StoredFile`."""

    name: str = "abstract"
    #: the class of every file the format builds
    stored_type: Type[StoredFile]

    def from_columns(
        self, schema: Schema, columns: Iterable[Sequence], size: int
    ) -> StoredFile:
        """Encode *size* rows given as one sequence per schema column
        (walked once, so a lazy transpose never holds two copies)."""
        return self.stored_type(schema, columns, size)

    def build(self, schema: Schema, rows: Sequence[Row]) -> StoredFile:
        """Encode *rows*: the adapter for row producers (the reference
        executor, reduce output), a single transpose at the door.  The
        file keeps its columns only; the tuples stay the caller's."""
        rows = list(rows)
        # zip(*rows) yields one column at a time and the formats walk
        # them once: a single transposed tuple is alive, not all of them
        return self.from_columns(schema, zip(*rows), len(rows))

    def build_parts(
        self, schema: Schema, table: ColumnBatch, parts: int
    ) -> List[StoredFile]:
        """*table* (dense) cut into *parts* files of ``ceil(size /
        parts)`` consecutive rows each (trailing parts may be short or
        empty), every file built once from its column slices.

        The table's columns are consumed: each part is cut off the tail
        of every column, the last part first, so the table and its
        files never hold the same values twice, and the first part is
        built from what is left of the producer's own buffers
        (``table.columns`` ends up empty).  The columns must be lists or
        typed arrays — what :class:`~repro.common.rows.ColumnBuilder`
        makes."""
        columns = table.columns
        size = table.size
        chunk = -(-size // parts)
        built: List[StoredFile] = []
        for part in reversed(range(parts)):
            start = min(part * chunk, size)
            stop = min(start + chunk, size)
            if part:
                piece = [column[start:] for column in columns]
                for column in columns:
                    del column[start:]
            else:
                piece = columns[:]
                columns.clear()
            built.append(self.from_columns(schema, piece, stop - start))
        built.reverse()
        return built


_REGISTRY: Dict[str, FileFormat] = {}


def register_format(fmt: FileFormat) -> None:
    _REGISTRY[fmt.name] = fmt


def get_format(name: str) -> FileFormat:
    """Look up a registered format by name ('text', 'sequence', 'orc')."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise StorageError(f"unknown file format {name!r} (known: {known})") from None


def evaluate_stats_conjunct(
    conjunct: StatsConjunct, minimum: object, maximum: object
) -> bool:
    """Can any row in [minimum, maximum] satisfy the conjunct?

    Conservative: returns True (cannot skip) when stats are missing or
    types are not comparable.
    """
    _column, op, literal = conjunct
    if minimum is None or maximum is None or literal is None:
        return True
    try:
        if op == "=":
            return minimum <= literal <= maximum
        if op == "<":
            return minimum < literal
        if op == "<=":
            return minimum <= literal
        if op == ">":
            return maximum > literal
        if op == ">=":
            return maximum >= literal
    except TypeError:
        return True
    return True
