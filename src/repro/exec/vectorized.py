"""Column-kernel operators over :class:`~repro.common.rows.ColumnBatch`.

The one execution path of every engine task — map chains, broadcast
(map-join build) chains and reduce tails alike.  Each operator runs a
codegen'd whole-column loop (the ``codegen_*_kernel`` family in
:mod:`repro.exec.expressions`) against a column batch.  Filters narrow
the batch's *selection vector* rather than copying data — except that a
Filter feeding a map-side GROUP BY runs inside the group kernel — and rows
never materialize back into tuples: a FileSink keeps columns, and the
stored file is built from them; a ReduceSink hands the engine column
runs (:mod:`repro.exec.shuffle`) — Hive's VectorizedRowBatch design.

:func:`build_vector_pipeline` is total over the planner's descriptors:
there is no second mode to fall back to.  The row operators of
:mod:`repro.exec.operators` share no evaluation logic with this module;
they run only under the reference executor (``engines/local.py``),
which every engine is checked against — same rows in the same order,
same shuffle pair sizes.

Kernels are generated for what a batch promises about NULLs
(``ColumnBatch.no_nulls``): a descriptor keeps one kernel per set of
NULL-free columns among those it reads (:class:`Kernels` — in practice
one or two), and every operator says what it can promise about its
output, so the facts a stored file knows for free reach the kernels
downstream.  Where a fact is not cheaply known it is simply absent.

Compiled artifacts are owned, not cached globally: a kernel lives on the
descriptor it was compiled from (so it dies with the cached plan), and a
map-join hash table lives on the job run's :class:`BroadcastTable` (so
it dies with the job).  This module keeps no module-level state.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import compress
from operator import and_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.common.rows import ColumnBatch, take_columns
from repro.exec.expressions import (
    BoundExpression,
    InputRef,
    averaged_sums,
    codegen_filter_kernel,
    codegen_group_kernel,
    codegen_keys_kernel,
    codegen_project_kernel,
    referenced_columns,
)
from repro.exec.operators import (
    FileSinkDesc,
    FilterDesc,
    LimitDesc,
    MapGroupByDesc,
    MapJoinDesc,
    OperatorContext,
    ReduceSinkDesc,
    SelectDesc,
)
from repro.exec.shuffle import emit_run

Row = Tuple[object, ...]


class Kernels:
    """The compiled kernels of one descriptor: one per set of NULL-free
    columns among those its *expressions* read.  ``build(no_nulls)`` is
    the ``codegen_*_kernel`` call that generates a variant; a variant is
    keyed by one flag per referenced column (:meth:`known`).  A
    descriptor that names *floats* columns keys its variants on one more
    flag each — the batch holds that column as a typed ``array('d')``,
    so every value in it is a float — and is built with
    ``build(no_nulls, floats)``."""

    __slots__ = ("referenced", "floats", "build", "variants")

    def __init__(self, expressions, build: Callable, floats: Sequence[int] = ()):
        self.referenced = sorted(referenced_columns(*expressions))
        self.floats = sorted(floats)
        self.build = build
        self.variants: Dict[Tuple[bool, ...], object] = {}

    def known(self, facts: Optional[Sequence[bool]],
              columns: Sequence[Optional[Sequence]] = ()) -> Tuple[bool, ...]:
        """Per referenced column: a batch's ``no_nulls`` promises it;
        then per *floats* column: *columns* holds it as ``array('d')``."""
        if facts is None:
            flags = [False] * len(self.referenced)
        else:
            flags = [facts[column] for column in self.referenced]
        for column in self.floats:
            values = columns[column]
            flags.append(type(values) is array and values.typecode == "d")
        return tuple(flags)

    def variant(self, known: Tuple[bool, ...]):
        kernel = self.variants.get(known)
        if kernel is None:
            width = len(self.referenced)
            facts = [frozenset(compress(self.referenced, known[:width]))]
            if self.floats:
                facts.append(frozenset(compress(self.floats, known[width:])))
            kernel = self.variants[known] = self.build(*facts)
        return kernel

    def for_facts(self, facts: Optional[Sequence[bool]]):
        return self.variant(self.known(facts))


def kernel_of(desc, expressions, build: Callable,
              slot: str = "_kernel", floats: Sequence[int] = ()) -> Kernels:
    """The :class:`Kernels` of the descriptor *desc*, kept on *desc*
    itself (under *slot*: a map-join has two, and a GROUP BY keeps the
    kernels with a Filter run inside them apart).

    Descriptors are plain dataclass instances inside the driver's cached
    plans, so every task of every run re-sees the same objects; the
    instance attribute is not a dataclass field (``==``/``repr`` ignore
    it) and is collected with the plan.
    """
    attributes = vars(desc)
    kernels = attributes.get(slot)
    if kernels is None:
        kernels = attributes[slot] = Kernels(expressions, build, floats)
    return kernels


def _facts_of(facts: Optional[Sequence[bool]], indices: List[int]):
    """*facts* re-pointed at the columns *indices* name."""
    return None if facts is None else [facts[index] for index in indices]


class BroadcastTable:
    """One loaded broadcast table — its rows as a dense
    :class:`~repro.common.rows.ColumnBatch` — plus the map-join hash
    tables built over it (keyed by build-key kernels).  A hash table is
    read-only after its build, so every task of the job run — they share
    this object — probes one copy, and it is freed with the job."""

    def __init__(self, batch: ColumnBatch):
        self.batch = batch
        self.hash_tables: Dict[Kernels, Dict[Row, List[int]]] = {}
        self._padded: Optional[List[list]] = None

    def hash_table(self, build_keys: Kernels) -> Dict[Row, List[int]]:
        """``key -> [row index]`` (table order) under the *build_keys*
        kernels, which run on the table's columns; built once."""
        table = self.hash_tables.get(build_keys)
        if table is None:
            table = self.hash_tables[build_keys] = {}
            batch = self.batch
            if batch.size:
                kernel = build_keys.for_facts(batch.no_nulls)
                keys = kernel(batch.columns, range(batch.size))
                for index, key in enumerate(keys):
                    if key is not None:  # NULL never matches an equi-join key
                        table.setdefault(key, []).append(index)
        return table

    def padded(self) -> List[list]:
        """The columns with a NULL appended — row ``batch.size`` is a
        left join's padding — built once."""
        if self._padded is None:
            self._padded = [list(column) + [None] for column in self.batch.columns]
        return self._padded


def _live(batch: ColumnBatch):
    """The batch's live positions (selection vector or the dense range)."""
    return batch.sel if batch.sel is not None else range(batch.size)


class VectorOperator:
    def __init__(self, child: Optional["VectorOperator"]):
        self.child = child

    def process_batch(self, batch: ColumnBatch) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.child is not None:
            self.child.close()


class VectorFilterOperator(VectorOperator):
    """Narrows the selection vector; column data is never copied."""

    def __init__(self, desc: FilterDesc, child: VectorOperator):
        super().__init__(child)
        self._kernels = kernel_of(
            desc, [desc.predicate],
            partial(codegen_filter_kernel, desc.predicate),
        )

    def process_batch(self, batch: ColumnBatch) -> None:
        kernel = self._kernels.for_facts(batch.no_nulls)
        sel = kernel(batch.columns, _live(batch))
        if sel:
            self.child.process_batch(batch.with_selection(sel))


class VectorSelectOperator(VectorOperator):
    """Projection: pure column references re-point at the input columns
    (zero copy, selection preserved); computed expressions evaluate over
    the selected rows into dense output columns."""

    def __init__(self, desc: SelectDesc, child: VectorOperator):
        super().__init__(child)
        if all(type(expression) is InputRef for expression in desc.expressions):
            self._indices: Optional[List[int]] = [
                expression.index for expression in desc.expressions
            ]
            self._kernels = None
        else:
            self._indices = None
            self._kernels = kernel_of(
                desc, desc.expressions,
                partial(codegen_project_kernel, desc.expressions),
            )

    def process_batch(self, batch: ColumnBatch) -> None:
        if self._indices is not None:
            columns = [batch.columns[index] for index in self._indices]
            self.child.process_batch(ColumnBatch(
                columns, batch.size, batch.sel,
                _facts_of(batch.no_nulls, self._indices),
            ))
            return
        kernel = self._kernels.for_facts(batch.no_nulls)
        columns = kernel(batch.columns, _live(batch))
        self.child.process_batch(
            ColumnBatch(columns, batch.live_count, None, kernel.no_nulls)
        )


class VectorMapGroupByOperator(VectorOperator):
    """Map-side partial aggregation: the whole inner loop (the filter
    feeding it, hash probe, pressure flush, accumulator updates) is one
    generated frame, which walks the columns it reads with ``zip`` — a
    window is sliced and any other selection gathered first."""

    def __init__(self, desc: MapGroupByDesc, child: VectorOperator,
                 predicate: Optional[BoundExpression] = None):
        super().__init__(child)
        expressions = desc.key_expressions + [
            argument for _aggregate, argument in desc.aggregates
            if argument is not None
        ]
        if predicate is not None:
            expressions.append(predicate)
        averaged = averaged_sums(desc.aggregates)
        self._kernels = kernel_of(
            desc, expressions,
            partial(codegen_group_kernel, desc.key_expressions,
                    desc.aggregates, desc.max_groups_in_memory,
                    predicate=predicate),
            "_kernel" if predicate is None else "_filtered_kernel",
            {desc.aggregates[position][1].index for position in averaged},
        )
        self._table: Dict[object, list] = {}
        # the same groups, one nested dict per key column: what a kernel
        # with two or more key columns probes
        self._index: Dict[object, dict] = {}
        # what every batch so far promised: a group seeded by a kernel
        # that was promised less may hold a NULL slot, which a kernel
        # promised more would not guard — so the promises only narrow
        self._known: Optional[Tuple[bool, ...]] = None
        self._scalar_key = False
        self._initial: list = []
        self._out_no_nulls: Optional[List[bool]] = None
        # (slot, source) pairs: slots of the live table that the running
        # variant leaves at their seed because *source* runs the same
        # value (``kernel.shared``)
        self._shared: Tuple[Tuple[int, int], ...] = ()
        self.flushes = 0

    def process_batch(self, batch: ColumnBatch) -> None:
        known = self._kernels.known(batch.no_nulls, batch.columns)
        if self._known is not None and known != self._known:
            known = tuple(map(and_, known, self._known))
        self._known = known
        kernel, self._initial, self._scalar_key, self._out_no_nulls = (
            self._kernels.variant(known)
        )
        if kernel.shared != self._shared:
            # a variant promised less shares less and would run on from
            # the seeds: bring the live groups up to date first
            for acc in self._table.values():
                for slot, source in self._shared:
                    acc[slot] = self._initial[slot] + acc[source]
            self._shared = kernel.shared
        columns = [batch.columns[index] for index in kernel.columns]
        if batch.sel is not None:
            columns = take_columns(columns, batch.sel)
        kernel(columns, batch.live_count, self._table, self._index,
               self._initial, self._flush)

    def _flush(self) -> None:
        self.flushes += 1
        table = self._table
        if not table:
            return
        # flat slots are exactly the concatenated partial tuples, so the
        # batch is the key column(s) followed by the slot columns
        columns = [list(table)] if self._scalar_key else list(map(list, zip(*table)))
        first_slot = len(columns)
        columns += map(list, zip(*table.values()))
        for slot, source in self._shared:  # filled in from the slot that ran
            zero = self._initial[slot]
            columns[first_slot + slot] = [
                zero + value for value in columns[first_slot + source]
            ]
        size = len(table)
        table.clear()
        self._index.clear()
        self.child.process_batch(
            ColumnBatch(columns, size, None, self._out_no_nulls)
        )

    def close(self) -> None:
        self._flush()
        super().close()


class VectorMapJoinOperator(VectorOperator):
    """Broadcast hash join: probe keys come from a column kernel; matched
    big-side rows are gathered as an index list (late materialization —
    output columns are built straight from the input columns)."""

    def __init__(self, desc: MapJoinDesc, child: VectorOperator,
                 context: OperatorContext):
        super().__init__(child)
        self._probe_keys, build_keys = (
            kernel_of(desc, expressions,
                      partial(codegen_keys_kernel, expressions), slot)
            for slot, expressions in (
                ("_kernel", desc.probe_key_expressions),
                ("_build_kernel", desc.build_key_expressions),
            )
        )
        self._left_join = desc.join_type == "left"
        self._swap = desc.swap_output
        try:
            small = context.small_tables[desc.small_location]
        except KeyError:
            raise ExecutionError(
                f"map-join small table not loaded: {desc.small_location}"
            ) from None
        self._hash = small.hash_table(build_keys)
        self._pad = small.batch.size  # the row a left join's miss picks
        width = small.batch.width
        if self._left_join:
            # the padding puts NULLs in every small-side column
            self._small_columns = small.padded()
            self._small_no_nulls = [False] * width
        else:
            self._small_columns = small.batch.columns
            self._small_no_nulls = list(small.batch.no_nulls or [False] * width)

    def process_batch(self, batch: ColumnBatch) -> None:
        probe_keys = self._probe_keys.for_facts(batch.no_nulls)
        keys = probe_keys(batch.columns, _live(batch))
        table_get = self._hash.get
        left_join = self._left_join
        pad = self._pad
        gather: List[int] = []
        gather_append = gather.append
        picks: List[int] = []  # small-side row per output row
        pick_append = picks.append
        for position, key in zip(_live(batch), keys):
            matches = table_get(key) if key is not None else None
            if matches:
                for index in matches:
                    gather_append(position)
                    pick_append(index)
            elif left_join:
                gather_append(position)
                pick_append(pad)
        if not gather:
            return
        big_columns = [  # an absent column stays absent
            None if column is None else [column[i] for i in gather]
            for column in batch.columns
        ]
        small_columns = [
            list(map(column.__getitem__, picks)) for column in self._small_columns
        ]
        if self._swap:
            columns = small_columns + big_columns
        else:
            columns = big_columns + small_columns
        big = batch.no_nulls
        big = [False] * batch.width if big is None else list(big)
        small = self._small_no_nulls
        self.child.process_batch(ColumnBatch(
            columns, len(gather), None, small + big if self._swap else big + small
        ))


class VectorLimitOperator(VectorOperator):
    def __init__(self, desc: LimitDesc, child: VectorOperator):
        super().__init__(child)
        self._remaining = desc.limit

    def process_batch(self, batch: ColumnBatch) -> None:
        if self._remaining <= 0:
            return
        batch = batch.take_first(self._remaining)
        self._remaining -= batch.live_count
        self.child.process_batch(batch)


class VectorReduceSinkOperator(VectorOperator):
    """Terminal: hands the engine's collector one
    :class:`~repro.common.kv.PairRun` per batch — the referenced
    columns gathered once (a window is a slice), wire sizes and
    partitions computed per column — the pair stream the reference
    ``ReduceSinkOperator`` produces, never one object per pair.  The
    planner projects in front of a sink, so keys and values are plain
    column references; anything else is projected into dense columns
    first and takes the same path."""

    def __init__(self, desc: ReduceSinkDesc, context: OperatorContext):
        super().__init__(None)
        expressions = desc.key_expressions + desc.value_expressions
        if all(type(expression) is InputRef for expression in expressions):
            self._project = None
            # a column referenced twice (a join key is also a value) is
            # gathered once
            self._indices = [expression.index for expression in expressions]
            self._distinct = sorted(set(self._indices))
            self._slots = [
                self._distinct.index(index) for index in self._indices
            ]
        else:
            self._project = kernel_of(
                desc, expressions, partial(codegen_project_kernel, expressions)
            )
        self._key_arity = len(desc.key_expressions)
        self._tag = desc.tag
        self._context = context

    def process_batch(self, batch: ColumnBatch) -> None:
        context = self._context
        count = batch.live_count
        if not count:
            return
        if self._project is not None:
            project = self._project.for_facts(batch.no_nulls)
            columns = project(batch.columns, _live(batch))
            no_nulls = project.no_nulls
        else:
            referenced = [batch.columns[index] for index in self._distinct]
            if batch.sel is not None:
                referenced = take_columns(referenced, batch.sel)
            columns = [referenced[slot] for slot in self._slots]
            no_nulls = _facts_of(batch.no_nulls, self._indices)
        partition_ids, run = emit_run(
            columns[:self._key_arity], columns[self._key_arity:], self._tag,
            count, context.num_partitions,
        )
        run.no_nulls = no_nulls
        context.kv_size_histogram.update(run.sizes)
        context.kv_pairs_out += count
        context.kv_bytes_out += sum(run.sizes)
        context.collector.collect_batch(partition_ids, run)

    def close(self) -> None:
        pass


class VectorFileSinkOperator(VectorOperator):
    """Terminal: keeps each batch's live rows as columns (a window is a
    slice, typed buffers stay typed) and publishes them at close as the
    task's output, one dense batch — it never becomes row tuples on its
    way to ``HDFS.write``."""

    def __init__(self, desc: FileSinkDesc, context: OperatorContext):
        super().__init__(None)
        self._context = context
        self._batches: List[ColumnBatch] = []

    def process_batch(self, batch: ColumnBatch) -> None:
        self._context.rows_emitted += batch.live_count
        self._batches.append(batch.dense())

    def close(self) -> None:
        self._context.output = ColumnBatch.concat(self._batches)


def build_vector_pipeline(
    descriptors: List[object], context: OperatorContext
) -> VectorOperator:
    """Instantiate a vector pipeline from descriptors (sink must be last)."""
    if not descriptors:
        raise ExecutionError("empty operator pipeline")
    tail = descriptors[-1]
    if isinstance(tail, ReduceSinkDesc):
        operator: VectorOperator = VectorReduceSinkOperator(tail, context)
    elif isinstance(tail, FileSinkDesc):
        operator = VectorFileSinkOperator(tail, context)
    else:
        raise ExecutionError(f"pipeline must end in a sink, got {type(tail).__name__}")
    chain = descriptors[:-1]
    while chain:
        descriptor = chain.pop()
        if isinstance(descriptor, FilterDesc):
            operator = VectorFilterOperator(descriptor, operator)
        elif isinstance(descriptor, SelectDesc):
            operator = VectorSelectOperator(descriptor, operator)
        elif isinstance(descriptor, MapGroupByDesc):
            # a Filter right in front runs inside the group kernel
            predicate = None
            if chain and isinstance(chain[-1], FilterDesc):
                predicate = chain.pop().predicate
            operator = VectorMapGroupByOperator(descriptor, operator, predicate)
        elif isinstance(descriptor, MapJoinDesc):
            operator = VectorMapJoinOperator(descriptor, operator, context)
        elif isinstance(descriptor, LimitDesc):
            operator = VectorLimitOperator(descriptor, operator)
        else:
            raise ExecutionError(f"unknown operator descriptor {type(descriptor).__name__}")
    return operator
