"""A ReduceSink's output as one column run: :func:`emit_run`.

A ReduceSink emits one :class:`~repro.common.kv.PairRun` per column
batch — the pairs' key columns, value columns and wire sizes, never one
object per pair — and a reduce task gathers the
:class:`~repro.common.kv.Segments` its partition received back into
columns (:mod:`repro.exec.column_reduce`).  What a run says about its
pairs is exactly what the reference ``ReduceSinkOperator`` says one
``KeyValue`` at a time: the same wire size per pair, and the partition
``stable_hash(key) % P``.
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import List, Sequence
from zlib import crc32

from repro.common.errors import ExecutionError
from repro.common.kv import (
    PairRun,
    bulk_field_bytes,
    bulk_field_sizes,
    exact_field_bytes,
    exact_field_sizes,
)
from repro.obs import get_metrics


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
