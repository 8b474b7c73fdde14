"""Reduce-side descriptors, and the reference logics built from them.

The physical plan names a reduce task's work with one of the four
descriptors below.  They have two runtimes, like the map operators: the
engines reduce over column slices (:mod:`repro.exec.column_reduce`); the
``ReduceLogic`` classes here run only under the reference executor
(``engines/local.py``).  There a reduce task receives groups of
``(key, [values])`` where each value is ``(tag, field, field, ...)``; the
logic turns each group into output rows, collected in group order in
:attr:`ReduceLogic.rows`.  :class:`~repro.exec.mapper.ExecReducer` owns
what happens next: the task's tail pipeline (having filters,
projections, limits, file sink) sees those rows once, at close —
mirroring Hive's reduce-side operator tree rooted at a GroupBy/Join
operator.
"""

from __future__ import annotations

import functools
import operator
from itertools import chain, groupby
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.common.kv import KeyValue
from repro.common.rows import compare_values

Row = Tuple[object, ...]
Value = Tuple[object, ...]  # (tag, *fields)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass
class ReduceAggregateDesc:
    """Finalize GROUP BY: merge map-side partials (or update raw values)."""

    key_arity: int
    aggregates: List[object]  # Aggregate instances, in select order
    inputs_are_partials: bool = True
    partial_arities: List[int] = field(default_factory=list)


@dataclass
class ReduceJoinDesc:
    """Reduce-side (common) join of two tagged inputs on the group key."""

    join_type: str  # 'inner' | 'left'
    left_width: int
    right_width: int


@dataclass
class ReduceSortDesc:
    """Identity pass: the framework's key sort provides the order."""


@dataclass
class ReduceDistinctDesc:
    """Emit each distinct key once (SELECT DISTINCT / dedup stages)."""

    key_arity: int


ReduceLogicDesc = object


# ---------------------------------------------------------------------------
# runtime logics
# ---------------------------------------------------------------------------

class ReduceLogic:
    def __init__(self, desc: ReduceLogicDesc):
        self.desc = desc
        self.rows: List[Row] = []  # every group's output, in group order

    def reduce(self, key: Row, values: Sequence[Value]) -> None:
        raise NotImplementedError


class AggregateReduceLogic(ReduceLogic):
    def __init__(self, desc: ReduceAggregateDesc):
        super().__init__(desc)
        if desc.inputs_are_partials and len(desc.partial_arities) != len(desc.aggregates):
            raise ExecutionError("partial_arities must match aggregates")

    def reduce(self, key: Row, values: Sequence[Value]) -> None:
        desc = self.desc
        accumulators = [aggregate.create() for aggregate in desc.aggregates]
        if desc.inputs_are_partials:
            for value in values:
                fields = value[1:]  # strip tag
                offset = 0
                for position, aggregate in enumerate(desc.aggregates):
                    arity = desc.partial_arities[position]
                    partial = fields[offset : offset + arity]
                    accumulators[position] = aggregate.merge(accumulators[position], partial)
                    offset += arity
        else:
            for value in values:
                fields = value[1:]
                for position, aggregate in enumerate(desc.aggregates):
                    accumulators[position] = aggregate.update(
                        accumulators[position], fields[position]
                    )
        results = tuple(
            aggregate.result(accumulator)
            for aggregate, accumulator in zip(desc.aggregates, accumulators)
        )
        self.rows.append(tuple(key) + results)


class JoinReduceLogic(ReduceLogic):
    """Buffers the left (tag 0) rows, streams the right (tag 1) rows."""

    def reduce(self, key: Row, values: Sequence[Value]) -> None:
        desc = self.desc
        # two comprehension passes beat one Python loop with a branch;
        # the right side goes first so a right-empty inner-join group
        # returns before materializing its left rows
        right_rows = [value[1:] for value in values if value[0] != 0]
        if right_rows:
            left_rows = [value[1:] for value in values if value[0] == 0]
            self.rows.extend(
                [left + right for left in left_rows for right in right_rows]
            )
        elif desc.join_type == "left":
            nulls = (None,) * desc.right_width
            self.rows.extend(
                [value[1:] + nulls for value in values if value[0] == 0]
            )


class SortReduceLogic(ReduceLogic):
    def reduce(self, key: Row, values: Sequence[Value]) -> None:
        self.rows.extend([value[1:] for value in values])


class DistinctReduceLogic(ReduceLogic):
    def reduce(self, key: Row, values: Sequence[Value]) -> None:
        self.rows.append(tuple(key))


def build_reduce_logic(desc: ReduceLogicDesc) -> ReduceLogic:
    if isinstance(desc, ReduceAggregateDesc):
        return AggregateReduceLogic(desc)
    if isinstance(desc, ReduceJoinDesc):
        return JoinReduceLogic(desc)
    if isinstance(desc, ReduceSortDesc):
        return SortReduceLogic(desc)
    if isinstance(desc, ReduceDistinctDesc):
        return DistinctReduceLogic(desc)
    raise ExecutionError(f"unknown reduce logic {type(desc).__name__}")


# ---------------------------------------------------------------------------
# framework-side sort & group helpers.  ``key_comparator`` defines the
# shuffle order for every executor; the pair-at-a-time sort and grouping
# below run under the reference executor only (the engines sort one index
# permutation over key columns, :mod:`repro.exec.column_reduce`).
# ---------------------------------------------------------------------------

def key_comparator(directions: Optional[Sequence[bool]] = None):
    """cmp function over key tuples honoring per-field ASC/DESC flags."""

    def compare(left: Row, right: Row) -> int:
        for position in range(min(len(left), len(right))):
            outcome = compare_values(left[position], right[position])
            if outcome != 0:
                if directions is not None and position < len(directions):
                    return outcome if directions[position] else -outcome
                return outcome
        return len(left) - len(right)

    return compare


_key_of = operator.attrgetter("key")


def _keys_native_sortable(pairs: List[KeyValue]) -> bool:
    """True when builtin tuple order coincides with :func:`key_comparator`.

    That holds when no key field is ``None`` (NULLS FIRST differs from a
    ``TypeError``) or ``bool`` (the comparator coerces the other operand),
    and all keys share one arity (the comparator breaks ties by length
    *without* direction flipping).  Beyond those cases the comparator is
    plain ``<``/``>``, exactly the builtin order.
    """
    if not pairs:
        return True
    keys = list(map(_key_of, pairs))
    if len(set(map(len, keys))) != 1:
        return False
    part_types = set(map(type, chain.from_iterable(keys)))
    if type(None) in part_types:
        return False
    # isinstance(..., bool) in the per-field loop this replaces only
    # ever matched exact bools: bool is final (cannot be subclassed)
    return bool not in part_types


def sort_pairs(
    pairs: List[KeyValue], directions: Optional[Sequence[bool]] = None
) -> List[KeyValue]:
    """Sort shuffle pairs by key (stable, direction-aware).

    Every reduce task sorts its input, so the common cases — all fields
    ascending, or all descending — go through the builtin tuple sort
    (C-speed) when the keys are provably order-compatible; anything else
    (NULLs, bools, mixed directions, incomparable type mixes) takes the
    comparator path.
    """
    if directions is None or all(directions):
        native_reverse: Optional[bool] = False
    elif not any(directions) and pairs and len(directions) >= len(pairs[0].key):
        native_reverse = True
    else:
        native_reverse = None
    if native_reverse is not None and _keys_native_sortable(pairs):
        try:
            return sorted(pairs, key=_key_of, reverse=native_reverse)
        except TypeError:
            pass  # incomparable type mix: use the Hive comparator
    compare = key_comparator(directions)
    return sorted(pairs, key=functools.cmp_to_key(lambda a, b: compare(a.key, b.key)))


_value_of = operator.attrgetter("value")


def group_sorted_pairs(
    pairs: Iterable[KeyValue],
) -> Iterable[Tuple[Row, List[Value]]]:
    """Group consecutive equal keys of an already-sorted pair stream.

    ``itertools.groupby`` does the consecutive-equality scan in C; the
    per-group value extraction is a single ``map`` pass."""
    for key, group in groupby(pairs, key=_key_of):
        yield key, list(map(_value_of, group))
