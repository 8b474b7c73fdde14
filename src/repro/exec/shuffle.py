"""The unit of exchange between map and reduce tasks: column runs.

A ReduceSink emits one :class:`PairRun` per column batch — the pairs'
key columns, value columns and wire sizes, never one object per pair.
Collectors, DataMPI's Send Partition Lists and the receive side hold
:class:`Segments`: ``(run, positions)`` slices of those runs, split by
partition without copying a field.  A reduce task gathers its segments
back into columns (:mod:`repro.exec.column_reduce`).

What a run says about its pairs is exactly what the reference
``ReduceSinkOperator`` says one ``KeyValue`` at a time: pair *i* is
``(key_columns[*][i], (tag,) + value_columns[*][i])``, its wire size is
``kv_size`` of that pair and its partition ``stable_hash(key) % P``.
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import List, Optional, Sequence, Tuple
from zlib import crc32

from repro.common.errors import ExecutionError
from repro.common.kv import (
    bulk_field_bytes,
    bulk_field_sizes,
    exact_field_bytes,
    exact_field_sizes,
)
from repro.common.rows import take_columns
from repro.obs import get_metrics


class PairRun:
    """Shuffle pairs of one sink, column-wise, in emit order.
    ``no_nulls`` carries the sink's ``ColumnBatch.no_nulls`` promises
    over the key columns, then the value columns (``None``: none made)."""

    __slots__ = ("key_columns", "value_columns", "tag", "sizes", "no_nulls")

    def __init__(self, key_columns: List[Sequence], value_columns: List[Sequence],
                 tag: int, sizes: List[int],
                 no_nulls: Optional[Sequence[bool]] = None):
        self.key_columns = key_columns
        self.value_columns = value_columns
        self.tag = tag
        self.sizes = sizes  # wire bytes per pair
        self.no_nulls = no_nulls

    def __len__(self) -> int:
        return len(self.sizes)

    def sizes_at(self, positions: Sequence[int]):
        """The wire sizes of the pairs at *positions* (ascending: as many
        positions as pairs is all of them), in order."""
        if len(positions) == len(self.sizes):
            return self.sizes
        return map(self.sizes.__getitem__, positions)

    def take(self, positions: Sequence[int]) -> "PairRun":
        """The pairs at *positions* (repeats allowed), as a new run."""
        return PairRun(
            take_columns(self.key_columns, positions),
            take_columns(self.value_columns, positions),
            self.tag,
            list(map(self.sizes.__getitem__, positions)),
            self.no_nulls,
        )


class Segments:
    """Pairs held as ``(run, positions)`` slices, in arrival order.
    ``len()`` counts pairs."""

    __slots__ = ("parts", "pairs")

    def __init__(self):
        self.parts: List[Tuple[PairRun, Sequence[int]]] = []
        self.pairs = 0

    def add(self, run: PairRun, positions: Sequence[int]) -> None:
        self.parts.append((run, positions))
        self.pairs += len(positions)

    def extend(self, other: "Segments") -> None:
        self.parts += other.parts
        self.pairs += other.pairs

    def __len__(self) -> int:
        return self.pairs


def split_positions(partition_ids: Sequence[int], num_partitions: int):
    """``[(partition, positions)]`` for every partition *partition_ids*
    names, positions ascending (a stable split of the emit stream)."""
    if num_partitions == 1:
        return [(0, range(len(partition_ids)))]
    split: dict = {}
    for position, partition in enumerate(partition_ids):
        try:
            split[partition].append(position)
        except KeyError:
            split[partition] = [position]
    return list(split.items())


def emit_run(key_columns: List[Sequence], value_columns: List[Sequence],
             tag: int, count: int, num_partitions: int):
    """``(partition ids, PairRun)`` for *count* > 0 pairs given as dense
    columns — sizes and partitions in per-column passes.

    Key bytes exist only to be hashed, so they are built only when there
    is more than one partition; the size of a key is the size of its
    fields either way.
    """
    if len(key_columns) > 255:
        raise ExecutionError("composite key/value arity > 255")
    # key arity byte + value arity byte + the tag field, an exact int
    fixed = 1 + 1 + 9
    varying: List[Sequence[int]] = []
    exact = 0  # columns walked by the per-value serde
    sized: dict = {}  # id(column) -> its sizes: a join key is also a value
    if num_partitions > 1:
        hashes = repeat(crc32(bytes([len(key_columns)])))
        for column in key_columns:
            data = bulk_field_bytes(column)
            if data is None:
                exact += 1
                data = exact_field_bytes(column)
            lengths = set(map(len, data))
            sized[id(column)] = (
                (lengths.pop(), None) if len(lengths) == 1
                else (0, list(map(len, data)))
            )
            hashes = map(crc32, data, hashes)
        partition_ids = [
            (value & 0x7FFFFFFF) % num_partitions
            for value in map(crc32, repeat(b"\x00", count), hashes)
        ]
    else:
        partition_ids = [0] * count
    for position, column in enumerate(key_columns + value_columns):
        sizes = sized.get(id(column))
        if sizes is None:
            is_key = position < len(key_columns)
            sizes = bulk_field_sizes(column, is_key)
            if sizes is None:
                exact += 1
                sizes = exact_field_sizes(column, is_key)
            sized[id(column)] = sizes
        fixed += sizes[0]
        if sizes[1] is not None:
            varying.append(sizes[1])
    counter = get_metrics().counter
    counter("exec.sink.columns_bulk").add(len(sized) - exact)
    if exact:
        counter("exec.sink.columns_exact").add(exact)
    if varying:
        sizes = varying[0]
        for more in varying[1:]:
            sizes = map(add, sizes, more)
        sizes = list(map(fixed.__add__, sizes))
    else:
        sizes = [fixed] * count
    return partition_ids, PairRun(key_columns, value_columns, tag, sizes)
