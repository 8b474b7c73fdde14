"""ExecMapper / ExecReducer: engine-independent task bodies.

The paper's design keeps Hive's ExecMapper/ExecReducer intact and swaps
only the surrounding engine (job control + shuffle).  Likewise here: all
engines instantiate these drivers, feed them rows/groups, and own the
collector the pipeline emits into.

Both drivers take one switch, ``vectorized``, naming the *role* of the
caller: the production engines pass ``True`` and run the column-kernel
operators (:func:`build_vector_pipeline`) and the columnar reduce
(:func:`reduce_segments`); the reference executor
(``engines/local.py``) passes ``False`` and runs the row operators
(:func:`build_pipeline`) and the pair-at-a-time sort, grouping and
reduce logics.  This is the only module that knows both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.rows import ColumnBatch
from repro.exec.column_reduce import reduce_segments
from repro.exec.operators import (
    Collector,
    MapOperator,
    OperatorContext,
    ReduceSinkDesc,
    SkewRoutingCollector,
    build_pipeline,
)
from repro.exec.reduce import (
    ReduceAggregateDesc,
    ReduceLogic,
    build_reduce_logic,
    group_sorted_pairs,
    sort_pairs,
)
from repro.exec.vectorized import VectorOperator, build_vector_pipeline

Row = Tuple[object, ...]


@dataclass
class MapTaskResult:
    """Functional products of one map (or reduce) task.

    ``output`` is what the task's FileSink received, in the
    representation its pipeline runs on: one dense
    :class:`~repro.common.rows.ColumnBatch` from the column kernels, row
    tuples from the row operators.  ``HDFS.write`` takes either."""

    output: Union[List[Row], ColumnBatch]  # non-empty only for map-only jobs
    rows_read: int
    kv_pairs: int
    kv_bytes: int


def _task_result(context: OperatorContext) -> MapTaskResult:
    return MapTaskResult(
        output=context.output,
        rows_read=context.rows_read,
        kv_pairs=context.kv_pairs_out,
        kv_bytes=context.kv_bytes_out,
    )


class ExecMapper:
    """Drives one map task's operator pipeline over input row batches."""

    def __init__(
        self,
        descriptors: List[object],
        collector: Optional[Collector],
        num_partitions: int,
        small_tables: Optional[Dict[str, List[Row]]] = None,
        vectorized: bool = False,
    ):
        self.context = OperatorContext(
            collector=collector,
            num_partitions=num_partitions,
            small_tables=small_tables,
        )
        # Skew routing sits between the sink and the engine collector;
        # both sink implementations read ``context.collector`` at call
        # time, so swapping it here covers every engine, the local
        # oracle and pooled workers with one mechanism.
        if descriptors and collector is not None:
            last = descriptors[-1]
            if isinstance(last, ReduceSinkDesc) and last.skew is not None:
                self.context.collector = SkewRoutingCollector(
                    last.skew, collector, self.context
                )
        self.vector_pipeline: Optional[VectorOperator] = (
            build_vector_pipeline(descriptors, self.context)
            if vectorized else None
        )
        self.pipeline: Optional[MapOperator] = (
            None if vectorized else build_pipeline(descriptors, self.context)
        )
        self._closed = False

    def process_batch(self, batch: Union[ColumnBatch, List[Row]]) -> int:
        """Push a batch through the pipeline; returns rows consumed.

        The batch is in the representation the pipeline runs on — a
        :class:`~repro.common.rows.ColumnBatch` for the column kernels,
        a list of row tuples for the row operators; nothing converts
        between the two.  Rows travel as one batch per operator hop
        instead of one Python call per row.
        """
        if self.vector_pipeline is not None:
            if batch.live_count:
                self.vector_pipeline.process_batch(batch)
        else:
            self.pipeline.process_rows(batch)
        count = len(batch)
        self.context.rows_read += count
        return count

    def close(self) -> MapTaskResult:
        if not self._closed:
            if self.vector_pipeline is not None:
                self.vector_pipeline.close()
            else:
                self.pipeline.close()
            self._closed = True
        return _task_result(self.context)


class ExecReducer:
    """Drives one reduce task: shuffle input -> sort, group, reduce logic
    -> the tail pipeline, which sees the logic's output once.

    The engines (``vectorized=True``) hand :meth:`run` the
    :class:`~repro.common.kv.Segments` their partition received and
    reduce over column slices (:func:`reduce_segments`); the reference
    executor hands it ``KeyValue`` pairs and runs the row logics of
    :mod:`repro.exec.reduce` one group at a time.
    """

    def __init__(
        self,
        logic_desc: object,
        downstream_descriptors: List[object],
        small_tables: Optional[Dict[str, List[Row]]] = None,
        vectorized: bool = False,
    ):
        self.context = OperatorContext(small_tables=small_tables)
        self.logic_desc = logic_desc
        self.logic: Optional[ReduceLogic] = None
        self.tail: Optional[MapOperator] = None
        self.vector_tail: Optional[VectorOperator] = None
        if vectorized:
            self.vector_tail = build_vector_pipeline(
                downstream_descriptors, self.context
            )
        else:
            self.logic = build_reduce_logic(logic_desc)
            self.tail = build_pipeline(downstream_descriptors, self.context)

    def run(self, shuffle_input,
            directions: Optional[Sequence[bool]] = None) -> MapTaskResult:
        """Reduce one partition's whole *shuffle_input*."""
        if self.vector_tail is not None:
            batch = reduce_segments(self.logic_desc, shuffle_input, directions)
            if batch.size:
                self.vector_tail.process_batch(batch)
            self.vector_tail.close()
            return _task_result(self.context)
        saw_group = False
        for key, values in group_sorted_pairs(sort_pairs(shuffle_input, directions)):
            saw_group = True
            self.logic.reduce(key, values)
        if (
            not saw_group
            and isinstance(self.logic_desc, ReduceAggregateDesc)
            and self.logic_desc.key_arity == 0
        ):
            # SQL: a global aggregate over zero rows still yields one row
            # (COUNT(*) = 0, SUM = NULL)
            self.logic.reduce((), [])
        self.tail.process_rows(self.logic.rows)
        self.tail.close()
        return _task_result(self.context)
