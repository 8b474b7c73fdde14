"""Operator descriptors, and the reference row operators built from them.

The physical plan stores *descriptors* (plain dataclasses).  They have
two runtimes.  Every engine task instantiates the column-kernel
operators of :mod:`repro.exec.vectorized`.  The row operators in this
module — bound expressions compiled into closures, rows pushed down the
pipeline one list per hop — run only under the reference executor
(``engines/local.py``): they are the oracle the engines are checked
against, so they stay simple rather than fast.  Either pipeline ends in
a ReduceSink (emitting shuffle pairs through the engine's collector —
Hadoop's spill buffer or the DataMPICollector) or a FileSink (buffering
output rows for HDFS).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from zlib import crc32

from repro.common.errors import ExecutionError
from repro.common.kv import KeyValue, fields_size, serialize_fields
from repro.exec.expressions import (
    BoundExpression,
    Const,
    compile_expression,
    compile_many,
)

Row = Tuple[object, ...]
Rows = List[Row]


# ---------------------------------------------------------------------------
# descriptors (what the physical plan serializes)
# ---------------------------------------------------------------------------

@dataclass
class FilterDesc:
    predicate: BoundExpression


@dataclass
class SelectDesc:
    expressions: List[BoundExpression]


@dataclass
class MapGroupByDesc:
    """Map-side partial aggregation (hash in memory, flush on pressure)."""

    key_expressions: List[BoundExpression]
    # (aggregate object, argument expression or None for COUNT(*))
    aggregates: List[Tuple[object, Optional[BoundExpression]]]
    max_groups_in_memory: int = 100_000


@dataclass(frozen=True)
class SkewRouteDesc:
    """SharesSkew-style routing for heavy join keys (docs/optimizer.md).

    The optimizer attaches one of these to each side's ReduceSink when
    column stats flag skewed join keys.  ``mode='split'`` (the big side)
    round-robins a heavy key's pairs over all ``P`` partitions starting
    at the key's hash partition; ``mode='replicate'`` (the other side)
    copies each heavy-key pair to all ``P`` targets.  Every split
    partition thus holds a disjoint slice of the big side against the
    complete other side, so the per-partition join outputs union to
    exactly the plain-shuffle result.  Non-heavy keys route normally.
    """

    heavy_keys: Tuple[Tuple[object, ...], ...]
    mode: str  # 'split' | 'replicate'


@dataclass
class ReduceSinkDesc:
    key_expressions: List[BoundExpression]
    value_expressions: List[BoundExpression]
    tag: int = 0
    # number of reduce partitions is decided by the engine at job start
    skew: Optional[SkewRouteDesc] = None


@dataclass
class MapJoinDesc:
    """Broadcast hash join executed entirely map-side.

    ``small_location`` names the HDFS directory of the small table; the
    engine loads its rows (running the broadcast chain) and hands them to
    the operator at init.  When ``swap_output`` is set the build side is
    the logical *left* input, so output rows are ``small + big`` to keep
    the plan's column order.
    """

    small_location: str
    probe_key_expressions: List[BoundExpression]  # over the big (streamed) side
    build_key_expressions: List[BoundExpression]  # over the small side's rows
    join_type: str = "inner"  # 'inner' | 'left'
    small_width: int = 0  # columns in the small side (for outer-join nulls)
    swap_output: bool = False


@dataclass
class LimitDesc:
    limit: int


@dataclass
class FileSinkDesc:
    column_names: List[str] = field(default_factory=list)


MapOperatorDesc = object  # union of the dataclasses above


# ---------------------------------------------------------------------------
# runtime context + collector protocol
# ---------------------------------------------------------------------------

class Collector:
    """Engine-provided sink for shuffle pairs (partition pre-computed).

    Two entry points, one per executor role: the reference row sink
    calls :meth:`collect` once per pair; the column sink calls
    :meth:`collect_batch` once per batch with a
    :class:`~repro.common.kv.PairRun`.  A collector implements the
    one its engine's role uses.
    """

    def collect(self, partition: int, pair: KeyValue) -> None:
        raise NotImplementedError

    def collect_batch(self, partition_ids, run) -> None:
        """Take the pairs of *run*; pair *i* goes to ``partition_ids[i]``.
        Order is the emit order, so buffer-fill sequences are those of
        per-pair collection."""
        raise NotImplementedError


class ListCollector(Collector):
    """Test/reference collector: buffers everything."""

    def __init__(self):
        self.pairs: List[Tuple[int, KeyValue]] = []

    def collect(self, partition: int, pair: KeyValue) -> None:
        self.pairs.append((partition, pair))


class SkewRoutingCollector(Collector):
    """Re-routes heavy join keys per a :class:`SkewRouteDesc`.

    Wraps the engine collector inside :class:`~repro.exec.mapper.ExecMapper`
    — below the sink (row and column sinks both read
    ``context.collector`` at call time) and above the engine's partition
    buffers, so byte accounting per partition stays exact on every
    engine and the local oracle alike.  Routing is
    deterministic: per-key round-robin counters start at zero in every
    task and targets are ``(hash_partition + s) % P`` for ``s < P``, so
    a run's pair placement never depends on task order.
    """

    def __init__(self, desc: SkewRouteDesc, inner: Collector, context: "OperatorContext"):
        self._num_partitions = context.num_partitions
        self._split = desc.mode == "split"
        self._inner = inner
        self._context = context
        # heavy key -> next round-robin offset (split mode)
        self._next: Dict[Tuple[object, ...], int] = {
            key: 0 for key in desc.heavy_keys
        }

    def collect(self, partition: int, pair: KeyValue) -> None:
        offsets = self._next
        key = pair.key
        if key not in offsets:
            self._inner.collect(partition, pair)
            return
        num_partitions = self._num_partitions
        if self._split:
            offset = offsets[key]
            offsets[key] = (offset + 1) % num_partitions
            self._inner.collect((partition + offset) % num_partitions, pair)
            return
        # replicate: one copy per split target.  The sink already
        # accounted the pair once, so charge the extra copies here —
        # the engine's partition buffers below see every copy anyway.
        inner_collect = self._inner.collect
        for offset in range(num_partitions):
            inner_collect((partition + offset) % num_partitions, pair)
        extra = num_partitions - 1
        if extra > 0:
            size = pair.serialized_size()
            context = self._context
            context.kv_pairs_out += extra
            context.kv_bytes_out += size * extra
            context.kv_size_histogram[size] += extra

    def collect_batch(self, partition_ids, run) -> None:
        """:meth:`collect` over a run.  Split mode only re-targets ids;
        replicate mode hands on a longer run in which every copy sits
        at its original's place in the emit stream."""
        offsets = self._next
        keys = list(zip(*run.key_columns))
        heavy = [i for i, key in enumerate(keys) if key in offsets]
        if not heavy:
            self._inner.collect_batch(partition_ids, run)
            return
        num_partitions = self._num_partitions
        if self._split:
            for i in heavy:
                offset = offsets[keys[i]]
                offsets[keys[i]] = (offset + 1) % num_partitions
                partition_ids[i] = (partition_ids[i] + offset) % num_partitions
            self._inner.collect_batch(partition_ids, run)
            return
        positions: List[int] = []
        routed: List[int] = []
        done = 0
        for i in heavy:
            positions += range(done, i)
            routed += partition_ids[done:i]
            positions += [i] * num_partitions
            routed += [
                (partition_ids[i] + offset) % num_partitions
                for offset in range(num_partitions)
            ]
            done = i + 1
        positions += range(done, len(run))
        routed += partition_ids[done:]
        extra = num_partitions - 1
        if extra > 0:
            context = self._context
            sizes = [run.sizes[i] for i in heavy]
            context.kv_pairs_out += extra * len(heavy)
            context.kv_bytes_out += extra * sum(sizes)
            for size in sizes:
                context.kv_size_histogram[size] += extra
        self._inner.collect_batch(routed, run.take(positions))


class OperatorContext:
    """Per-task runtime services shared by the operator pipeline."""

    def __init__(
        self,
        collector: Optional[Collector] = None,
        num_partitions: int = 1,
        small_tables: Optional[Dict[str, List[Row]]] = None,
    ):
        self.collector = collector
        self.num_partitions = max(1, num_partitions)
        self.small_tables = small_tables or {}
        # what the task's FileSink received, in the representation its
        # pipeline runs on: row tuples from the row operators, one dense
        # ColumnBatch (published at close) from the column kernels
        self.output = []
        # counters
        self.rows_read = 0
        self.rows_emitted = 0
        self.kv_pairs_out = 0
        self.kv_bytes_out = 0
        # serialized size -> pair count (Fig 2(c)/(d) instrumentation);
        # a Counter so the vectorized sink can batch-count sizes in C
        self.kv_size_histogram: Dict[int, int] = Counter()


# ---------------------------------------------------------------------------
# runtime operators
# ---------------------------------------------------------------------------

class MapOperator:
    """A row operator: one entry point, a batch of rows per call."""

    def __init__(self, child: Optional["MapOperator"]):
        self.child = child

    def process_rows(self, rows: Rows) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.child is not None:
            self.child.close()


class FilterOperator(MapOperator):
    def __init__(self, desc: FilterDesc, child: MapOperator):
        super().__init__(child)
        self._predicate = compile_expression(desc.predicate)

    def process_rows(self, rows: Rows) -> None:
        predicate = self._predicate
        batch = [row for row in rows if predicate(row) is True]
        if batch:
            self.child.process_rows(batch)


class SelectOperator(MapOperator):
    def __init__(self, desc: SelectDesc, child: MapOperator):
        super().__init__(child)
        self._project = compile_many(desc.expressions)

    def process_rows(self, rows: Rows) -> None:
        project = self._project
        self.child.process_rows([project(row) for row in rows])


class MapGroupByOperator(MapOperator):
    """Hash-based partial aggregation; flushes when the table grows past
    the configured bound (Hive's map-side GroupBy with memory pressure).
    One generic loop over the GenericUDAF protocol
    (``create -> update* -> partial``) — this is the reference the
    generated group kernel is checked against."""

    def __init__(self, desc: MapGroupByDesc, child: MapOperator):
        super().__init__(child)
        self._key = compile_many(desc.key_expressions)
        self._aggregates = [aggregate for aggregate, _arg in desc.aggregates]
        self._updates = [aggregate.update for aggregate in self._aggregates]
        # COUNT(*) has no argument: it counts the sentinel True
        self._args_of = compile_many(
            [
                arg if arg is not None else Const(True)
                for _aggregate, arg in desc.aggregates
            ]
        )
        self._max_groups = desc.max_groups_in_memory
        self._table: Dict[Row, list] = {}
        self.flushes = 0

    def process_rows(self, rows: Rows) -> None:
        key_of = self._key
        table = self._table
        args_of = self._args_of
        aggregates = self._aggregates
        updates = self._updates
        max_groups = self._max_groups
        for row in rows:
            key = key_of(row)
            accumulators = table.get(key)
            if accumulators is None:
                if len(table) >= max_groups:
                    self._flush()  # clears in place; `table` stays bound
                accumulators = [aggregate.create() for aggregate in aggregates]
                table[key] = accumulators
            accumulators[:] = [
                update(accumulator, value) for update, accumulator, value
                in zip(updates, accumulators, args_of(row))
            ]

    def _flush(self) -> None:
        self.flushes += 1
        if not self._table:
            return
        batch: Rows = []
        for key, accumulators in self._table.items():
            flat: List[object] = list(key)
            for aggregate, accumulator in zip(self._aggregates, accumulators):
                flat.extend(aggregate.partial(accumulator))
            batch.append(tuple(flat))
        self._table.clear()
        self.child.process_rows(batch)

    def close(self) -> None:
        self._flush()
        super().close()


class MapJoinOperator(MapOperator):
    """Broadcast hash join: build side loaded at init, probe side streamed."""

    def __init__(self, desc: MapJoinDesc, child: MapOperator, context: OperatorContext):
        super().__init__(child)
        self._probe_key = compile_many(desc.probe_key_expressions)
        self._join_type = desc.join_type
        self._small_width = desc.small_width
        self._swap = desc.swap_output
        try:
            small_rows = context.small_tables[desc.small_location]
        except KeyError:
            raise ExecutionError(
                f"map-join small table not loaded: {desc.small_location}"
            ) from None
        build_key = compile_many(desc.build_key_expressions)
        self._hash: Dict[Row, List[Row]] = {}
        for row in small_rows:
            key = build_key(row)
            if any(part is None for part in key):
                continue  # NULL never matches an equi-join key
            self._hash.setdefault(key, []).append(row)

    def process_rows(self, rows: Rows) -> None:
        probe_key = self._probe_key
        table = self._hash
        swap = self._swap
        left_join = self._join_type == "left"
        null_pad = (None,) * self._small_width
        batch: Rows = []
        append = batch.append
        for row in rows:
            key = probe_key(row)
            matches = None
            if not any(part is None for part in key):
                matches = table.get(key)
            if matches:
                if swap:
                    for small_row in matches:
                        append(small_row + row)
                else:
                    for small_row in matches:
                        append(row + small_row)
            elif left_join:
                append(row + null_pad)
        if batch:
            self.child.process_rows(batch)


class LimitOperator(MapOperator):
    def __init__(self, desc: LimitDesc, child: MapOperator):
        super().__init__(child)
        self._remaining = desc.limit

    def process_rows(self, rows: Rows) -> None:
        if self._remaining <= 0:
            return
        if len(rows) > self._remaining:
            rows = rows[: self._remaining]
        self._remaining -= len(rows)
        self.child.process_rows(rows)


class ReduceSinkOperator(MapOperator):
    """Terminal: computes (key, value), partitions, hands to the collector."""

    def __init__(self, desc: ReduceSinkDesc, context: OperatorContext):
        super().__init__(None)
        self._key = compile_many(desc.key_expressions)
        self._value = compile_many(desc.value_expressions)
        self._tag = desc.tag
        self._context = context

    def process_rows(self, rows: Rows) -> None:
        key_of = self._key
        value_of = self._value
        tag = self._tag
        context = self._context
        num_partitions = context.num_partitions
        histogram = context.kv_size_histogram
        histogram_get = histogram.get
        collect = context.collector.collect
        pairs_out = 0
        bytes_out = 0
        for row in rows:
            key = key_of(row)
            # encode the key once: the bytes drive the partition hash
            # (same bytes as stable_hash) and, minus the empty-value
            # arity byte, the key's share of the wire size
            key_bytes = serialize_fields(key)
            value = (tag,) + value_of(row)
            size = len(key_bytes) - 1 + fields_size(value)
            pairs_out += 1
            bytes_out += size
            histogram[size] = histogram_get(size, 0) + 1
            collect(
                (crc32(key_bytes) & 0x7FFFFFFF) % num_partitions,
                KeyValue(key, value),
            )
        context.kv_pairs_out += pairs_out
        context.kv_bytes_out += bytes_out


class FileSinkOperator(MapOperator):
    """Terminal: buffers final output rows (the task writes them to HDFS)."""

    def __init__(self, desc: FileSinkDesc, context: OperatorContext):
        super().__init__(None)
        self._context = context

    def process_rows(self, rows: Rows) -> None:
        self._context.rows_emitted += len(rows)
        self._context.output.extend(rows)


def build_pipeline(
    descriptors: List[MapOperatorDesc], context: OperatorContext
) -> MapOperator:
    """Instantiate a runtime pipeline from descriptors (sink must be last)."""
    if not descriptors:
        raise ExecutionError("empty operator pipeline")
    tail = descriptors[-1]
    if isinstance(tail, ReduceSinkDesc):
        operator: MapOperator = ReduceSinkOperator(tail, context)
    elif isinstance(tail, FileSinkDesc):
        operator = FileSinkOperator(tail, context)
    else:
        raise ExecutionError(f"pipeline must end in a sink, got {type(tail).__name__}")
    for descriptor in reversed(descriptors[:-1]):
        if isinstance(descriptor, FilterDesc):
            operator = FilterOperator(descriptor, operator)
        elif isinstance(descriptor, SelectDesc):
            operator = SelectOperator(descriptor, operator)
        elif isinstance(descriptor, MapGroupByDesc):
            operator = MapGroupByOperator(descriptor, operator)
        elif isinstance(descriptor, MapJoinDesc):
            operator = MapJoinOperator(descriptor, operator, context)
        elif isinstance(descriptor, LimitDesc):
            operator = LimitOperator(descriptor, operator)
        else:
            raise ExecutionError(f"unknown operator descriptor {type(descriptor).__name__}")
    return operator
