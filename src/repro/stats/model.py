"""Table/column statistics: collection, selectivity, freshness.

Two tiers, mirroring Hive:

* **Basic stats** (``row_count`` / ``total_bytes``) are cheap file
  metadata — the driver auto-gathers them after INSERT/CTAS (like
  ``hive.stats.autogather``) without touching a single row.
* **Column stats** (NDV sketch, heavy-hitter sketch, min/max, null
  count) require a scan and are collected only by
  ``ANALYZE TABLE t COMPUTE STATISTICS FOR COLUMNS``.

Conventions match the rest of the catalog: ``row_count`` counts
*stored* rows (what operators actually process, same as
``TableDescriptor.row_count``) while ``total_bytes`` is *logical*
bytes (scale-multiplied, what the cost model charges — same as
``_table_bytes`` in the physical compiler).  With only basic stats and
no filter conjuncts, every estimate collapses to the raw numbers the
planner used before stats existed, so plans cannot change until
someone runs ANALYZE.

Freshness is a *fingerprint*, not a timestamp: the ``(path, scale,
rows, bytes)`` tuple of every file in the table directory at
collection time.  ``Metastore.get_table_stats`` recomputes it read-only
and silently returns nothing when it no longer matches, so stale stats
degrade to "no stats" instead of wrong plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.stats.sketches import (
    DEFAULT_HEAVY_CAPACITY,
    DEFAULT_NDV_K,
    KMVSketch,
    SpaceSavingSketch,
)

# Hive's defaults for un-estimable predicates (ndv unknown, literal
# outside the observed range, non-numeric range comparison).
DEFAULT_EQUALS_SELECTIVITY = 1.0 / 16.0
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

Fingerprint = Tuple[Tuple[str, float, int, int], ...]


@dataclass
class ColumnStats:
    """Statistics for one column, built from a full scan."""

    name: str
    count: int = 0           # stored rows seen (incl. nulls)
    null_count: int = 0
    min_value: object = None  # numeric columns only
    max_value: object = None
    ndv_sketch: KMVSketch = field(default_factory=lambda: KMVSketch(DEFAULT_NDV_K))
    heavy: SpaceSavingSketch = field(
        default_factory=lambda: SpaceSavingSketch(DEFAULT_HEAVY_CAPACITY)
    )

    def observe(self, value: object) -> None:
        self.count += 1
        if value is None:
            self.null_count += 1
            return
        self.ndv_sketch.add(value)
        self.heavy.add(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        merged = ColumnStats(
            name=self.name,
            count=self.count + other.count,
            null_count=self.null_count + other.null_count,
            ndv_sketch=self.ndv_sketch.merge(other.ndv_sketch),
            heavy=self.heavy.merge(other.heavy),
        )
        mins = [v for v in (self.min_value, other.min_value) if v is not None]
        maxs = [v for v in (self.max_value, other.max_value) if v is not None]
        merged.min_value = min(mins) if mins else None
        merged.max_value = max(maxs) if maxs else None
        return merged

    @property
    def ndv(self) -> float:
        return max(1.0, self.ndv_sketch.estimate())

    @property
    def non_null_fraction(self) -> float:
        if self.count <= 0:
            return 1.0
        return (self.count - self.null_count) / self.count

    def heavy_hitters(self, min_share: float) -> List[Tuple[object, float]]:
        return self.heavy.heavy_hitters(min_share)

    def selectivity(self, op: str, literal: object) -> float:
        """Estimated fraction of rows satisfying ``col <op> literal``."""
        non_null = self.non_null_fraction
        if op == "=":
            share = self.heavy.share(literal)
            if share is not None:
                return _clamp(share)
            return _clamp(non_null / self.ndv)
        if op in ("<", "<=", ">", ">="):
            lo, hi = self.min_value, self.max_value
            if (
                lo is not None
                and hi is not None
                and isinstance(literal, (int, float))
                and not isinstance(literal, bool)
            ):
                if hi <= lo:
                    span_frac = 1.0 if _passes(lo, op, literal) else 0.0
                else:
                    # linear interpolation over the observed range
                    position = (float(literal) - lo) / (hi - lo)
                    position = min(1.0, max(0.0, position))
                    span_frac = position if op in ("<", "<=") else 1.0 - position
                return _clamp(span_frac * non_null)
            return _clamp(DEFAULT_RANGE_SELECTIVITY * non_null)
        return 1.0

    def summary(self) -> Dict[str, object]:
        return {
            "column": self.name,
            "count": self.count,
            "nulls": self.null_count,
            "ndv": round(self.ndv, 1),
            "min": self.min_value,
            "max": self.max_value,
            "top": [
                (value, round(share, 4))
                for value, share in self.heavy.heavy_hitters(0.05)[:5]
            ],
        }


def _passes(value: object, op: str, literal: object) -> bool:
    try:
        if op == "<":
            return value < literal
        if op == "<=":
            return value <= literal
        if op == ">":
            return value > literal
        return value >= literal
    except TypeError:
        return True


def _clamp(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))


@dataclass
class TableStats:
    """Statistics for one table at a specific data fingerprint."""

    table: str
    row_count: int                 # stored rows across all part-files
    total_bytes: float             # logical (scale-multiplied) bytes
    fingerprint: Fingerprint
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    @property
    def has_column_stats(self) -> bool:
        return bool(self.columns)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def conjunct_selectivity(
        self, conjuncts: List[Tuple[str, str, object]]
    ) -> float:
        """Combined selectivity of ANDed ``(column, op, literal)``
        conjuncts, assuming independence.  Conjuncts on columns without
        stats contribute 1.0, so basic-only stats never shrink an
        estimate."""
        selectivity = 1.0
        for column, op, literal in conjuncts:
            stats = self.columns.get(column.lower())
            if stats is None:
                continue
            selectivity *= stats.selectivity(op, literal)
        return _clamp(selectivity)

    def summary(self) -> Dict[str, object]:
        return {
            "table": self.table,
            "row_count": self.row_count,
            "total_bytes": round(self.total_bytes, 1),
            "columns": sorted(self.columns),
        }


def table_fingerprint(hdfs, location: str) -> Fingerprint:
    """Cheap content identity of a table directory (no row access)."""
    return tuple(
        (f.path, f.scale, f.stored.row_count, f.stored.total_bytes)
        for f in hdfs.list_dir(location)
    )


def collect_table_stats(hdfs, table, with_columns: bool = True) -> TableStats:
    """Scan *table*'s files, column by column, and build a
    :class:`TableStats`.

    Per-file column sketches are built independently and merged — the
    same block-wise shape a distributed stats task would use, and what
    the property tests exercise for associativity.  With
    ``with_columns=False`` only file metadata is read (basic stats).
    """
    files = hdfs.list_dir(table.location)
    stats = TableStats(
        table=table.name,
        row_count=sum(f.row_count for f in files),
        total_bytes=sum(f.logical_bytes for f in files),
        fingerprint=table_fingerprint(hdfs, table.location),
    )
    if not with_columns:
        return stats
    names = [column.name.lower() for column in table.full_schema.columns]
    merged: Dict[str, ColumnStats] = {}
    for data_file in files:
        per_file = {name: ColumnStats(name=name) for name in names}
        # a column at a time from the file's columns, each in row order;
        # no row is made (partition columns are not in the file)
        stored = data_file.stored
        batch = stored.scan_batch(0, stored.row_count).batch
        for name, column in zip(names, batch.columns):
            observe = per_file[name].observe
            for value in column:
                observe(value)
        for name, column_stats in per_file.items():
            merged[name] = (
                column_stats if name not in merged
                else merged[name].merge(column_stats)
            )
    stats.columns = merged
    return stats
