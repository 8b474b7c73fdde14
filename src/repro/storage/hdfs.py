"""Simulated HDFS: namespace, block placement, locality-aware splits.

The NameNode keeps a flat ``path -> DataFile`` namespace with directory
semantics by prefix (a "table" is a directory holding one part-file per
writer task, exactly like Hive's warehouse layout).

Files carry a ``scale`` factor: rows are generated at laptop scale but
every cost-model byte count is multiplied by ``scale`` so the simulated
cluster sees the paper's logical data sizes (Table I).  Block boundaries
are computed on *logical* bytes (64 MB default, as in the paper), which
drives the number of map tasks and therefore the wave structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import StorageError
from repro.common.rows import ColumnBatch, Schema
from repro.common.units import MB
from repro.storage.formats.base import StoredFile, get_format

Row = Tuple[object, ...]

DEFAULT_BLOCK_SIZE = 64 * MB
DEFAULT_REPLICATION = 3


@dataclass(frozen=True)
class BlockInfo:
    """One HDFS block: a row range plus its replica locations (worker ids)."""

    block_id: int
    row_start: int
    row_count: int
    logical_bytes: float
    locations: Tuple[int, ...]


@dataclass(frozen=True)
class FileSplit:
    """An input split handed to one map/O task.

    ``hosts`` are worker indices holding a replica; the scheduler prefers
    them (data locality).  ``scale`` converts actual encoded bytes of this
    row range into logical bytes for the cost model.
    ``partition_values`` carries the Hive partition spec of the file (if
    any) so split expansion can prune whole partitions.
    """

    path: str
    row_start: int
    row_count: int
    logical_bytes: float
    hosts: Tuple[int, ...]
    scale: float
    stored: StoredFile = field(compare=False, hash=False, repr=False)
    partition_values: Optional[Dict[str, object]] = field(
        default=None, compare=False, hash=False
    )

    @property
    def length(self) -> float:
        return self.logical_bytes


class DataFile:
    """One HDFS file: encoded contents plus block layout."""

    def __init__(
        self,
        path: str,
        stored: StoredFile,
        format_name: str,
        scale: float,
        blocks: List[BlockInfo],
        partition_values: Optional[Dict[str, object]] = None,
    ):
        self.path = path
        self.stored = stored
        self.format_name = format_name
        self.scale = scale
        self.blocks = blocks
        self.partition_values = partition_values

    @property
    def schema(self) -> Schema:
        return self.stored.schema

    @property
    def rows(self) -> List[Row]:
        return self.stored.rows

    @property
    def row_count(self) -> int:
        return self.stored.row_count

    @property
    def logical_bytes(self) -> float:
        return self.stored.total_bytes * self.scale

    def splits(self) -> List[FileSplit]:
        """One split per block (the paper's Hadoop 1.x default)."""
        return [
            FileSplit(
                path=self.path,
                row_start=block.row_start,
                row_count=block.row_count,
                logical_bytes=block.logical_bytes,
                hosts=block.locations,
                scale=self.scale,
                stored=self.stored,
                partition_values=self.partition_values,
            )
            for block in self.blocks
        ]


class HDFS:
    """The simulated distributed filesystem.

    Purely functional bookkeeping: I/O *time* is charged by the engines
    through the cluster's disk/NIC resources, using the byte counts this
    layer reports.
    """

    def __init__(
        self,
        num_workers: int,
        block_size: float = DEFAULT_BLOCK_SIZE,
        replication: int = DEFAULT_REPLICATION,
        seed: int = 20150629,
    ):
        if num_workers < 1:
            raise StorageError("HDFS needs at least one datanode")
        self.num_workers = num_workers
        self.block_size = float(block_size)
        self.replication = min(replication, num_workers)
        self._files: Dict[str, DataFile] = {}
        #: bumped whenever the namespace changes (a file is added or
        #: removed); stored files are immutable, so anything derived
        #: from listings and file sizes is valid for one generation
        self.generation = 0
        self._sorted_paths: List[str] = []
        self._sorted_generation = 0
        self._rng = random.Random(seed)
        self._next_block_id = 0
        self._placement_cursor = 0

    # -- namespace --------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def get(self, path: str) -> DataFile:
        try:
            return self._files[path]
        except KeyError:
            raise StorageError(f"no such file: {path}") from None

    def delete(self, path: str) -> None:
        """Delete a file or (recursively) a directory prefix."""
        prefix = path.rstrip("/") + "/"
        doomed = [p for p in self._files if p == path or p.startswith(prefix)]
        for p in doomed:
            del self._files[p]
        if doomed:
            self.generation += 1

    def list_dir(self, directory: str) -> List[DataFile]:
        if self._sorted_generation != self.generation:
            self._sorted_paths = sorted(self._files)
            self._sorted_generation = self.generation
        prefix = directory.rstrip("/") + "/"
        return [
            self._files[path]
            for path in self._sorted_paths
            if path.startswith(prefix) or path == directory
        ]

    def dir_splits(self, directory: str) -> List[FileSplit]:
        splits: List[FileSplit] = []
        for data_file in self.list_dir(directory):
            splits.extend(data_file.splits())
        return splits

    def dir_rows(self, directory: str) -> List[Row]:
        """Every row of the directory's files, in path order, derived
        from their columns on every call (no file keeps them)."""
        rows: List[Row] = []
        for data_file in self.list_dir(directory):
            rows.extend(data_file.rows)
        return rows

    def dir_logical_bytes(self, directory: str) -> float:
        return sum(data_file.logical_bytes for data_file in self.list_dir(directory))

    # -- writing ------------------------------------------------------------------
    def write(
        self,
        path: str,
        schema: Schema,
        rows: Union[Sequence[Row], ColumnBatch, StoredFile],
        format_name: str = "text",
        scale: float = 1.0,
        writer_node: Optional[int] = None,
        partition_values: Optional[Dict[str, object]] = None,
    ) -> DataFile:
        """Encode *rows* with *format_name* and register the file.

        *rows* is whatever the writer has: row tuples, a
        :class:`~repro.common.rows.ColumnBatch` (an engine task's output,
        which reaches the format as columns without ever becoming rows),
        or a :class:`StoredFile` the writer already built with
        *format_name* and *schema* (a loader that sized the table by its
        parts), which is registered as it is.

        The first replica of every block lands on *writer_node* when given
        (HDFS's writer-affinity rule); remaining replicas are placed
        pseudo-randomly on distinct datanodes.
        """
        if path in self._files:
            raise StorageError(f"file exists: {path}")
        file_format = get_format(format_name)
        if isinstance(rows, StoredFile):
            if type(rows) is not file_format.stored_type or rows.schema != schema:
                raise StorageError(
                    f"{path}: a built file must be {format_name} with the "
                    "table's schema"
                )
            stored = rows
        elif isinstance(rows, ColumnBatch):
            batch = rows.dense()
            stored = file_format.from_columns(schema, batch.columns, batch.size)
        else:
            stored = file_format.build(schema, rows)
        blocks = self._split_into_blocks(stored, scale, writer_node)
        data_file = DataFile(
            path, stored, format_name, scale, blocks, partition_values
        )
        self._files[path] = data_file
        self.generation += 1
        return data_file

    # -- internals ----------------------------------------------------------------
    def _split_into_blocks(
        self, stored: StoredFile, scale: float, writer_node: Optional[int]
    ) -> List[BlockInfo]:
        blocks: List[BlockInfo] = []
        total_rows = stored.row_count
        if total_rows == 0:
            return [
                BlockInfo(
                    self._take_block_id(),
                    0,
                    0,
                    0.0,
                    self._place_replicas(writer_node),
                )
            ]
        actual_block_bytes = max(1.0, self.block_size / scale)
        row_start = 0
        while row_start < total_rows:
            row_count = self._rows_filling(stored, row_start, actual_block_bytes)
            logical = stored.bytes_for_range(row_start, row_count) * scale
            blocks.append(
                BlockInfo(
                    self._take_block_id(),
                    row_start,
                    row_count,
                    logical,
                    self._place_replicas(writer_node),
                )
            )
            row_start += row_count
        return blocks

    def _rows_filling(self, stored: StoredFile, row_start: int, budget: float) -> int:
        """Largest row count from *row_start* whose encoded size fits
        *budget* bytes (at least one row), found by galloping + bisection."""
        total = stored.row_count
        if stored.bytes_for_range(row_start, total - row_start) <= budget:
            return total - row_start
        low, high = 1, 2
        while (
            row_start + high <= total
            and stored.bytes_for_range(row_start, high) <= budget
        ):
            low, high = high, high * 2
        high = min(high, total - row_start)
        while low < high:
            mid = (low + high + 1) // 2
            if stored.bytes_for_range(row_start, mid) <= budget:
                low = mid
            else:
                high = mid - 1
        return max(1, low)

    def _take_block_id(self) -> int:
        self._next_block_id += 1
        return self._next_block_id

    def _place_replicas(self, writer_node: Optional[int]) -> Tuple[int, ...]:
        if writer_node is not None:
            first = writer_node % self.num_workers
        else:
            first = self._placement_cursor % self.num_workers
            self._placement_cursor += 1
        others = [node for node in range(self.num_workers) if node != first]
        self._rng.shuffle(others)
        return tuple([first] + others[: self.replication - 1])
