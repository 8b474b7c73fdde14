"""Format-neutral interfaces for stored tables.

A :class:`StoredFile` owns the rows of one HDFS file plus everything the
cost model needs: the *encoded* byte size (computed by really encoding the
rows) and, for columnar formats, per-stripe/per-column sub-sizes so that
column pruning and predicate pushdown translate into fewer bytes read.

``ScanResult`` is what a table-scan operator gets back: the surviving rows
(possibly a superset that still needs residual filtering) and the number of
encoded bytes a real reader would have pulled off the disk for them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import StorageError
from repro.common.rows import ColumnBatch, Schema, pack_column

Row = Tuple[object, ...]
Predicate = Callable[[Row], bool]

#: Conjunctive comparison usable against stripe min/max statistics:
#: (column_name, op, literal) with op in {'=', '<', '<=', '>', '>=' }.
StatsConjunct = Tuple[str, str, object]


@dataclass
class ScanResult:
    """Rows surviving a (possibly pushed-down) scan plus bytes charged."""

    rows: List[Row]
    bytes_read: int
    rows_skipped: int = 0  # rows eliminated before deserialization (ORC)


@dataclass
class BatchScanResult:
    """Columnar twin of :class:`ScanResult`: the same surviving rows as a
    dense :class:`~repro.common.rows.ColumnBatch`, with the identical
    byte charge — the representation changes, the cost model does not."""

    batch: ColumnBatch
    bytes_read: int
    rows_skipped: int = 0


class StoredFile(abc.ABC):
    """Encoded representation of a row block inside one HDFS file."""

    def __init__(self, schema: Schema, rows: List[Row]):
        self.schema = schema
        self.rows = rows

    @property
    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Encoded size of the whole file in bytes (un-scaled)."""

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @abc.abstractmethod
    def scan(
        self,
        row_start: int,
        row_count: int,
        columns: Optional[Sequence[str]] = None,
        stats_conjuncts: Optional[Sequence[StatsConjunct]] = None,
    ) -> ScanResult:
        """Read a row range.

        *columns* lists the columns the query needs (None = all); columnar
        formats charge only those streams.  *stats_conjuncts* allow
        stripe-level elimination via min/max statistics.  Returned rows are
        always **full-width** (the engine's residual filter/project runs on
        top) — pruning affects only the byte charge and skipped stripes.
        """

    def scan_batch(
        self,
        row_start: int,
        row_count: int,
        columns: Optional[Sequence[str]] = None,
        stats_conjuncts: Optional[Sequence[StatsConjunct]] = None,
    ) -> BatchScanResult:
        """Columnar scan: same contract as :meth:`scan` but the result is
        a full-width :class:`~repro.common.rows.ColumnBatch`.

        Row-oriented formats (Text/Sequence) get this rows→batch adapter
        for free; columnar formats override it to serve decoded column
        streams directly, with no intermediate row tuples.  Byte charges
        and stripe skipping are identical to :meth:`scan` by construction.
        """
        result = self.scan(
            row_start, row_count, columns=columns,
            stats_conjuncts=stats_conjuncts,
        )
        return BatchScanResult(
            batch=ColumnBatch.from_rows(result.rows, width=len(self.schema)),
            bytes_read=result.bytes_read,
            rows_skipped=result.rows_skipped,
        )

    @abc.abstractmethod
    def bytes_for_range(self, row_start: int, row_count: int) -> int:
        """Encoded bytes covering a row range (used to size input splits)."""


def contiguous_scan_batch(
    stored: StoredFile, row_start: int, row_count: int
) -> BatchScanResult:
    """``scan_batch`` for row-major formats whose :meth:`StoredFile.scan`
    returns the plain contiguous row range (Text, Sequence: no pruning,
    no pushdown).  The file's rows are transposed once, cached in the
    typed-buffer layout (:func:`~repro.common.rows.pack_column`), and
    every scan serves column slices — slicing a typed ``array`` yields a
    typed ``array``.  Byte charges are unchanged."""
    row_end = min(row_start + row_count, stored.row_count)
    start = min(row_start, stored.row_count)
    columns = getattr(stored, "_columns_cache", None)
    if columns is None:
        if stored.rows:
            columns = [pack_column(column) for column in zip(*stored.rows)]
        else:
            columns = [[] for _ in range(len(stored.schema))]
        stored._columns_cache = columns
    return BatchScanResult(
        batch=ColumnBatch(
            [column[start:row_end] for column in columns], row_end - start
        ),
        bytes_read=stored.bytes_for_range(row_start, row_count),
    )


class FileFormat(abc.ABC):
    """Factory turning rows into a :class:`StoredFile`."""

    name: str = "abstract"

    @abc.abstractmethod
    def build(self, schema: Schema, rows: List[Row]) -> StoredFile:
        """Encode *rows* and return the stored representation."""


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
