"""Hive Metastore: table name -> schema, warehouse location, format.

Hive tables are directories under ``/warehouse``; each part-file inside
belongs to the table.  ``CREATE TABLE``, ``DROP TABLE`` and ``INSERT
OVERWRITE`` in the driver manipulate this catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SemanticError
from repro.common.rows import Column, Schema
from repro.stats.model import TableStats, table_fingerprint
from repro.storage.hdfs import HDFS, FileSplit

WAREHOUSE_ROOT = "/warehouse"


@dataclass
class TableDescriptor:
    """Catalog entry for one Hive table.

    Partitioned tables (``PARTITIONED BY``) keep their partition columns
    separate from the data schema; each partition is a subdirectory
    ``col=value[/col=value...]`` under the table location (Hive's
    warehouse layout).  Part-files of a partition store full-width rows
    (data + partition values) so scans stay format-agnostic, while the
    partition registry enables directory-level pruning.
    """

    name: str
    schema: Schema
    location: str
    format_name: str = "text"
    partition_columns: List[Column] = field(default_factory=list)
    # partition value tuple -> directory
    partitions: Dict[Tuple[object, ...], str] = field(default_factory=dict)

    @property
    def is_partitioned(self) -> bool:
        return bool(self.partition_columns)

    @property
    def full_schema(self) -> Schema:
        """Data columns followed by partition columns (query-visible)."""
        if not self.partition_columns:
            return self.schema
        return Schema(list(self.schema.columns) + list(self.partition_columns))

    def partition_location(self, values: Tuple[object, ...]) -> str:
        pieces = [
            f"{column.name.lower()}={value}"
            for column, value in zip(self.partition_columns, values)
        ]
        return "/".join([self.location] + pieces)

    def add_partition(self, values: Tuple[object, ...]) -> str:
        if len(values) != len(self.partition_columns):
            raise SemanticError(
                f"table {self.name} has {len(self.partition_columns)} partition "
                f"column(s), got {len(values)} value(s)"
            )
        location = self.partition_location(values)
        self.partitions[tuple(values)] = location
        return location

    def splits(self, hdfs: HDFS) -> List[FileSplit]:
        return hdfs.dir_splits(self.location)

    def row_count(self, hdfs: HDFS) -> int:
        return sum(f.row_count for f in hdfs.list_dir(self.location))

    def logical_bytes(self, hdfs: HDFS) -> float:
        return hdfs.dir_logical_bytes(self.location)


class Metastore:
    """In-memory catalog mapping lowercase table names to descriptors."""

    def __init__(self, hdfs: HDFS):
        self.hdfs = hdfs
        self._tables: Dict[str, TableDescriptor] = {}
        # bumped on every catalog mutation; consumers (the driver's plan
        # cache) use it as a cheap staleness check
        self.version = 0
        # table statistics live beside the catalog, with their own epoch:
        # ANALYZE changes what the optimizer sees without changing any
        # table's data, so plan-cache keys must include stats_epoch too
        self._stats: Dict[str, TableStats] = {}
        self.stats_epoch = 0

    def create_table(
        self,
        name: str,
        schema: Schema,
        format_name: str = "text",
        location: Optional[str] = None,
        partition_columns: Optional[List[Column]] = None,
    ) -> TableDescriptor:
        key = name.lower()
        if key in self._tables:
            raise SemanticError(f"table already exists: {name}")
        partition_columns = list(partition_columns or [])
        for column in partition_columns:
            if schema.has(column.name):
                raise SemanticError(
                    f"partition column {column.name} duplicates a data column"
                )
        descriptor = TableDescriptor(
            name=key,
            schema=schema,
            location=location or f"{WAREHOUSE_ROOT}/{key}",
            format_name=format_name,
            partition_columns=partition_columns,
        )
        self._tables[key] = descriptor
        self.version += 1
        return descriptor

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise SemanticError(f"no such table: {name}")
        descriptor = self._tables.pop(key)
        self.version += 1
        self.drop_table_stats(key)
        self.hdfs.delete(descriptor.location)

    def truncate_table(self, name: str) -> None:
        """Remove a table's data files but keep the catalog entry
        (INSERT OVERWRITE semantics)."""
        descriptor = self.get_table(name)
        self.version += 1
        self.drop_table_stats(descriptor.name)
        self.hdfs.delete(descriptor.location)

    def get_table(self, name: str) -> TableDescriptor:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SemanticError(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    # -- statistics ---------------------------------------------------------
    def put_table_stats(self, stats: TableStats) -> None:
        """Store *stats* and bump the stats epoch.

        Deliberately does NOT bump :attr:`version`: ANALYZE changes no
        table data, so previously returned rows stay correct — but
        compiled plans must be re-costed, which the driver enforces by
        including :attr:`stats_epoch` in its plan-cache keys.
        """
        self._stats[stats.table.lower()] = stats
        self.stats_epoch += 1

    def get_table_stats(self, name: str) -> Optional[TableStats]:
        """Stats for *name*, or ``None`` when absent or stale.

        Staleness is checked read-only against the live filesystem: if
        any part-file was added, removed or rewritten since collection,
        the fingerprint differs and the stats are withheld (the planner
        then falls back to raw table bytes, never to wrong estimates).
        """
        key = name.lower()
        stats = self._stats.get(key)
        if stats is None:
            return None
        descriptor = self._tables.get(key)
        if descriptor is None:
            return None
        if stats.fingerprint != table_fingerprint(self.hdfs, descriptor.location):
            return None
        return stats

    def drop_table_stats(self, name: str) -> None:
        if self._stats.pop(name.lower(), None) is not None:
            self.stats_epoch += 1

    def stats_tables(self) -> List[str]:
        """Names of tables with (possibly stale) recorded stats."""
        return sorted(self._stats)
