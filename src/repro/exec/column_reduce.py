"""Reduce over column slices: what every engine's reduce task runs.

A reduce task's input is the :class:`~repro.common.kv.Segments` its
partition received.  :func:`reduce_segments` gathers them into key and
value columns, sorts **one** stable index permutation over the key
column(s), finds the group boundaries in one pass and runs the job's
reduce logic over column slices, handing the task's tail a
:class:`~repro.common.rows.ColumnBatch` — no pair, key tuple per pair or
row tuple is built on the way.

Same rows in the same order as the reference path (``sort_pairs`` →
``group_sorted_pairs`` → a ``ReduceLogic`` in :mod:`repro.exec.reduce`):
the order is :func:`~repro.exec.reduce.key_comparator`'s, decided by the
same rule (builtin order when the key columns' type sets prove it
coincides, the comparator otherwise); groups are runs of ``==`` keys;
aggregates add in arrival order.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left
from functools import partial
from itertools import chain, groupby
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.common.kv import PairRun
from repro.common.rows import (
    ColumnBatch,
    and_no_nulls,
    concat_columns,
    take_columns,
)
from repro.exec.expressions import InputRef, codegen_reduce_aggregate_kernel
from repro.exec.reduce import (
    ReduceAggregateDesc,
    ReduceDistinctDesc,
    ReduceJoinDesc,
    ReduceSortDesc,
    key_comparator,
)
from repro.exec.vectorized import kernel_of
from repro.obs import get_metrics

Parts = Sequence[Tuple[PairRun, Sequence[int]]]


def merge_parts(parts: Parts) -> List[Tuple[PairRun, Sequence[int]]]:
    """*parts* with neighbours cut from one run merged back into one
    part — consecutive send buffers slice a run in order, so the merged
    positions still ascend, and a run that arrives whole is one part."""
    merged = []
    for run, stretch in groupby(parts, key=itemgetter(0)):
        pieces = [positions for _run, positions in stretch]
        merged.append((run, pieces[0] if len(pieces) == 1
                       else list(chain.from_iterable(pieces))))
    return merged


def gather_parts(parts: Parts) -> Tuple[ColumnBatch, ColumnBatch]:
    """The keys and the values of same-shaped *parts*, concatenated in
    order, as two dense batches.  A part covering its whole run shares
    the run's columns (positions ascend, so as many positions as pairs
    is all of them).  A column is promised NULL-free when it gathered
    into a typed buffer, or when every run's sink promised it."""
    keys, values, count = [], [], 0
    for run, positions in parts:
        columns = run.key_columns + run.value_columns
        if len(positions) != len(run):
            columns = take_columns(columns, positions)
        keys.append(columns[:len(run.key_columns)])
        values.append(columns[len(run.key_columns):])
        count += len(positions)
    for pieces in (keys, values):
        if len(set(map(len, pieces))) > 1:
            raise ExecutionError("shuffle runs of one reducer differ in width")
    key_columns = [concat_columns(list(pieces)) for pieces in zip(*keys)]
    value_columns = [concat_columns(list(pieces)) for pieces in zip(*values)]
    columns = key_columns + value_columns
    claimed = and_no_nulls([run.no_nulls for run, _positions in parts])
    no_nulls = [
        isinstance(column, array) or claim
        for column, claim in zip(columns, claimed or [False] * len(columns))
    ]
    arity = len(key_columns)
    return (ColumnBatch(key_columns, count, None, no_nulls[:arity]),
            ColumnBatch(value_columns, count, None, no_nulls[arity:]))


def _native_sortable(key_columns: List[Sequence]) -> bool:
    """True when builtin order over the key columns coincides with
    :func:`key_comparator`: no field is ``None`` (NULLS FIRST differs
    from a ``TypeError``) or ``bool`` (the comparator coerces the other
    operand).  Arity is uniform by construction."""
    kinds: set = set()
    for column in key_columns:
        if not isinstance(column, array):  # typed buffers: exact int / float
            kinds.update(map(type, column))
    return type(None) not in kinds and bool not in kinds


def sort_permutation(keys: Sequence, key_columns: List[Sequence],
                     directions: Optional[Sequence[bool]],
                     arrival: Sequence[int]) -> List[int]:
    """Stable shuffle order of the pairs: *arrival* (their indices in
    arrival order) sorted by key, as one index permutation.

    *keys* is the key sequence the sort reads — the bare column for a
    single-column key, tuples otherwise (equal orders: a 1-tuple compares
    as its element).  When :func:`_native_sortable` the builtin sort
    does it: one pass over *keys* when every column goes the same way,
    otherwise one *stable* pass per key column, last column first, each
    in its own direction (``reverse=True`` keeps equal elements in
    order, so earlier passes survive as the tie-break).  NULLs, bools
    and incomparable type mixes take the Hive comparator.
    """
    arity = len(key_columns)
    ascending = [
        directions is None or position >= len(directions)
        or bool(directions[position])
        for position in range(arity)
    ]
    counter = get_metrics().counter
    if _native_sortable(key_columns):
        try:
            if len(set(ascending)) == 1:
                order = sorted(arrival, key=keys.__getitem__,
                               reverse=not ascending[0])
            else:
                order = list(arrival)
                for column, up in zip(reversed(key_columns), reversed(ascending)):
                    order.sort(key=column.__getitem__, reverse=not up)
            counter("exec.reduce.sort_native").add(1)
            return order
        except TypeError:
            pass  # incomparable type mix: use the Hive comparator
    counter("exec.reduce.sort_comparator").add(1)
    compare = key_comparator(directions)
    if arity == 1:
        keys = list(zip(keys))
    return sorted(arrival, key=functools.cmp_to_key(
        lambda a, b: compare(keys[a], keys[b])
    ))


def _sorted(key_columns: List[Sequence], arrival: Sequence[int],
            directions: Optional[Sequence[bool]], *, grouped: bool = True):
    """``(order, ends)``: the sorted permutation of the pairs and where
    in it each group of equal keys ends (``None`` unless *grouped*)."""
    count = len(arrival)
    if not key_columns:  # every key is (): arrival order, one group
        return list(arrival), [count] if count else []
    keys = key_columns[0] if len(key_columns) == 1 else list(zip(*key_columns))
    order = sort_permutation(keys, key_columns, directions, arrival)
    if not grouped:
        return order, None
    ordered = list(map(keys.__getitem__, order))
    # groupby compares neighbours in C, exactly as group_sorted_pairs does
    starts = [next(group) for _key, group
              in groupby(range(count), ordered.__getitem__)]
    return order, starts[1:] + [count]


def _group_keys(key_columns, order, ends) -> List[Sequence]:
    """The key columns of each group's first pair."""
    firsts = map(order.__getitem__, [0] + ends[:-1])
    return take_columns(key_columns, list(firsts))


def _aggregate(desc: ReduceAggregateDesc, parts: Parts, directions) -> ColumnBatch:
    partial_arities = desc.partial_arities if desc.inputs_are_partials else None
    if partial_arities is not None and len(partial_arities) != len(desc.aggregates):
        raise ExecutionError("partial_arities must match aggregates")
    keys, values = gather_parts(parts)
    if not keys.size:
        if desc.key_arity:
            return ColumnBatch([], 0)
        # SQL: a global aggregate over zero rows still yields one row
        # (COUNT(*) = 0, SUM = NULL)
        return ColumnBatch(
            [[aggregate.result(aggregate.create())]
             for aggregate in desc.aggregates], 1,
        )
    order, ends = _sorted(keys.columns, range(keys.size), directions)
    kernel, initial, out_no_nulls = kernel_of(
        desc, [InputRef(index) for index in range(values.width)],
        partial(codegen_reduce_aggregate_kernel, desc.aggregates, partial_arities),
    ).for_facts(values.no_nulls)
    columns = _group_keys(keys.columns, order, ends)
    columns += kernel(order, ends, values.columns, initial)
    return ColumnBatch(columns, len(ends), None, keys.no_nulls + out_no_nulls)


def _join(desc: ReduceJoinDesc, parts: Parts, directions) -> ColumnBatch:
    """Buffers the left (tag 0) rows of a group, streams the right ones:
    output is left-major per group, each side in arrival order.  The
    columns lay the left parts out before the right ones, so a group's
    indices, ascending, are its left rows then its right rows, each in
    arrival order; the output is gathered from the two sides' value
    columns at the end (late materialization)."""
    sides: Tuple[list, list] = ([], [])
    for part in parts:
        sides[part[0].tag != 0].append(part)
    left_keys, left_side = gather_parts(sides[0])
    right_keys, right_side = gather_parts(sides[1])
    left_count, left_values = left_side.size, left_side.columns
    right_count, right_values = right_side.size, right_side.columns
    left_outer = desc.join_type == "left"
    count = left_count + right_count
    if not count:
        return ColumnBatch([], 0)
    if left_count and right_count:
        key_columns = [concat_columns([left, right]) for left, right
                       in zip(left_keys.columns, right_keys.columns)]
    else:
        key_columns = left_keys.columns or right_keys.columns
        if not right_count:  # NULL padding needs columns to sit behind
            right_values = [[] for _ in range(desc.right_width)]
    # the pairs' indices in arrival order (parts interleave the sides)
    arrival: List[int] = []
    placed = [0, left_count]
    for run, positions in parts:
        side = run.tag != 0
        arrival += range(placed[side], placed[side] + len(positions))
        placed[side] += len(positions)
    order, ends = _sorted(key_columns, arrival, directions)
    left_rows: List[int] = []
    right_rows: List[int] = []  # offset by left_count; `count` is the NULL row
    start = 0
    for end in ends:
        group = sorted(order[start:end])
        start = end
        split = bisect_left(group, left_count)
        if split == len(group):
            if left_outer:
                left_rows += group
                right_rows += [count] * split
        elif split == 1:
            left_rows += group[:1] * (len(group) - 1)
            right_rows += group[1:]
        elif split:
            rights = group[split:]
            for left in group[:split]:
                left_rows += [left] * len(rights)
                right_rows += rights
    if left_outer:  # the NULL row sits behind each right column
        right_values = [[*column, None] for column in right_values]
    right_rows = list(map((-left_count).__add__, right_rows))
    no_nulls = None
    if left_count and right_count:  # else a side's width is not known here
        no_nulls = left_side.no_nulls + (
            [False] * right_side.width if left_outer else right_side.no_nulls
        )
    return ColumnBatch(
        take_columns(left_values, left_rows) + take_columns(right_values, right_rows),
        len(left_rows), None, no_nulls,
    )


def reduce_segments(desc: object, segments,
                    directions: Optional[Sequence[bool]]) -> ColumnBatch:
    """Sort, group and reduce one partition's shuffle input under the
    reduce descriptor *desc*; the rows the matching ``ReduceLogic``
    collects, as one dense batch."""
    parts = merge_parts(segments.parts)
    if isinstance(desc, ReduceAggregateDesc):
        return _aggregate(desc, parts, directions)
    if isinstance(desc, ReduceJoinDesc):
        return _join(desc, parts, directions)
    if not isinstance(desc, (ReduceSortDesc, ReduceDistinctDesc)):
        raise ExecutionError(f"unknown reduce logic {type(desc).__name__}")
    keys, values = gather_parts(parts)
    count = keys.size
    if not count:
        return ColumnBatch([], 0)
    if isinstance(desc, ReduceSortDesc):
        order, _ends = _sorted(keys.columns, range(count), directions, grouped=False)
        return ColumnBatch(
            take_columns(values.columns, order), count, None, values.no_nulls
        )
    order, ends = _sorted(keys.columns, range(count), directions)
    return ColumnBatch(
        _group_keys(keys.columns, order, ends), len(ends), None, keys.no_nulls
    )
