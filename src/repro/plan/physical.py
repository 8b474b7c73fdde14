"""Physical planning: bound logical tree -> DAG of MapReduce jobs.

The physical plan is engine-neutral (paper §IV-B: *"we continue to share
the query plan optimized for Hadoop"*): the Hadoop engine and the DataMPI
engine execute the **same** :class:`MRJob` objects; only job control,
startup and shuffle differ.

Shuffle-requiring logical nodes (Aggregate, common Join, Sort, Distinct)
each open a new job; Filters/Projects/Limits fuse into the enclosing map
or reduce chain; intermediate results go to temp directories in sequence
format.  Map-join converts a join against a small base table into a
broadcast hash join fused into the consuming chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import (
    Configuration,
    HIVE_MAPJOIN_SMALLTABLE_BYTES,
    SKEWJOIN_THRESHOLD,
    STATS_ENABLED,
)
from repro.common.errors import PlanError
from repro.common.rows import DataType, Schema
from repro.common.units import MB
from repro.exec import expressions as bexpr
from repro.exec.expressions import (
    BoundExpression,
    Const,
    InputRef,
    referenced_columns,
)
from repro.exec.operators import (
    FileSinkDesc,
    FilterDesc,
    LimitDesc,
    MapGroupByDesc,
    MapJoinDesc,
    ReduceSinkDesc,
    SelectDesc,
    SkewRouteDesc,
)
from repro.obs.metrics import get_metrics
from repro.exec.reduce import (
    ReduceAggregateDesc,
    ReduceDistinctDesc,
    ReduceJoinDesc,
    ReduceSortDesc,
)
from repro.plan.analyzer import split_conjuncts
from repro.plan.logical import (
    AggregateNode,
    DistinctNode,
    Filter,
    JoinNode,
    LimitNode,
    LogicalNode,
    Project,
    RowSignature,
    Scan,
    SortNode,
    UnionNode,
)
from repro.stats.model import TableStats
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore

DEFAULT_MAPJOIN_THRESHOLD = 25 * MB  # Hive 0.13 hive.mapjoin.smalltable.filesize
DEFAULT_SKEW_THRESHOLD = 0.2  # heavy-hitter share of a join key column
# require this margin before reordering a shuffle join's build side, so
# sketch noise near parity cannot flap plans between runs
SWAP_MARGIN = 0.8


# ---------------------------------------------------------------------------
# plan data model
# ---------------------------------------------------------------------------

@dataclass
class ScanHints:
    """What a scan may leave out, derived from the map chain.

    ``columns`` names the columns the chain reads (``None`` = all).  It
    decides two things: what every format's columnar scan *materializes*
    — a column it does not name is absent from the batch, and reading it
    fails (``ColumnBatch``) — and, for ORC alone, which streams the scan
    is *charged* for (a cost-model input; Text and Sequence pay the full
    row width whatever it says).  ``stats_conjuncts`` prune partitions
    for every format and stripes for ORC."""

    columns: Optional[List[str]] = None  # None = all columns
    stats_conjuncts: List[Tuple[str, str, object]] = field(default_factory=list)


@dataclass
class MapInput:
    """One input relation of a job with its per-record operator chain."""

    location: str
    tag: int
    operators: List[object]  # descriptors; a shuffle job's chain ends in ReduceSinkDesc
    hints: ScanHints = field(default_factory=ScanHints)


@dataclass
class BroadcastSpec:
    """A small table to load and preprocess on every map task (map join)."""

    location: str
    operators: List[object]  # Filter/Select chain applied to the loaded rows
    width: int


@dataclass
class MRJob:
    job_id: str
    inputs: List[MapInput]
    reduce_logic: Optional[object]  # None -> map-only job
    reduce_operators: List[object] = field(default_factory=list)  # ends FileSinkDesc
    output_location: str = ""
    output_schema: Optional[Schema] = None
    output_format: str = "sequence"
    output_partition_values: Optional[Dict[str, object]] = None
    sort_directions: Optional[List[bool]] = None
    num_reducers_hint: Optional[int] = None
    broadcasts: List[BroadcastSpec] = field(default_factory=list)
    is_final: bool = False

    @property
    def is_map_only(self) -> bool:
        return self.reduce_logic is None


@dataclass
class PhysicalPlan:
    jobs: List[MRJob]
    output_location: str
    output_schema: Schema
    final_limit: Optional[int] = None
    # whether the statement hands the rows under output_location back to
    # the client (a SELECT's result directory); an INSERT / CTAS writes a
    # table and returns none, so nothing reads its target back
    returns_rows: bool = True
    # human-readable costing/skew decisions, rendered by explain_plan
    optimizer_notes: List[str] = field(default_factory=list)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)


# ---------------------------------------------------------------------------
# compiler
# ---------------------------------------------------------------------------

class _MapStream:
    """Un-materialized map-side stream: per-file-input operator chains."""

    def __init__(self, inputs: List[MapInput], signature: RowSignature,
                 broadcasts: Optional[List[BroadcastSpec]] = None,
                 base_table: Optional[str] = None):
        self.inputs = inputs
        self.signature = signature
        self.broadcasts = broadcasts or []
        self.base_table = base_table  # table name when chain is over one base table

    def append(self, descriptor: object) -> None:
        for map_input in self.inputs:
            map_input.operators.append(descriptor)


class _ReduceStream:
    """An open job whose reduce-side chain is still growing."""

    def __init__(self, job: MRJob, signature: RowSignature):
        self.job = job
        self.signature = signature

    def append(self, descriptor: object) -> None:
        self.job.reduce_operators.append(descriptor)


@dataclass
class _SideEstimate:
    """What the cost model knows about one join input (see
    :meth:`PhysicalCompiler._estimate_stream`)."""

    table: Optional[str] = None
    raw_bytes: Optional[float] = None       # live logical bytes on disk
    est_bytes: Optional[float] = None       # post-filter estimate
    est_rows: Optional[float] = None
    selectivity: float = 1.0
    stats: Optional[TableStats] = None
    # row position -> base column name, None entries unresolvable
    column_map: Optional[List[Optional[str]]] = None
    conjuncts: List[Tuple[str, str, object]] = field(default_factory=list)

    @property
    def has_stats(self) -> bool:
        return self.stats is not None

    def size_or_inf(self) -> float:
        return self.est_bytes if self.est_bytes is not None else float("inf")

    def key_column_stats(self, key_expressions):
        """Column stats behind a single-column join key, if resolvable."""
        if self.stats is None or self.column_map is None:
            return None
        if len(key_expressions) != 1:
            return None
        key = key_expressions[0]
        if not isinstance(key, InputRef):
            return None
        if not 0 <= key.index < len(self.column_map):
            return None
        column = self.column_map[key.index]
        if column is None:
            return None
        return self.stats.column(column)


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "?"
    if value >= MB:
        return f"{value / MB:.1f}MB"
    if value >= 1024:
        return f"{value / 1024:.1f}KB"
    return f"{value:.0f}B"


class PhysicalCompiler:
    def __init__(self, metastore: Metastore, hdfs: HDFS, conf: Optional[Configuration] = None,
                 query_id: str = "q"):
        self.metastore = metastore
        self.hdfs = hdfs
        self.conf = conf or Configuration()
        self.query_id = query_id
        self._job_counter = 0
        self._temp_counter = 0
        self.jobs: List[MRJob] = []
        self.notes: List[str] = []
        self._stats_enabled = self.conf.get_bool(STATS_ENABLED, True)
        self._skew_threshold = self.conf.get_float(
            SKEWJOIN_THRESHOLD, DEFAULT_SKEW_THRESHOLD
        )

    # -- public API ---------------------------------------------------------
    def compile(
        self,
        root: LogicalNode,
        output_location: str,
        output_format: str = "text",
    ) -> PhysicalPlan:
        self.jobs = []
        self.notes = []
        final_limit = root.limit if isinstance(root, LimitNode) else None
        stream = self._compile_node(root)
        schema = stream.signature.to_schema()
        if isinstance(stream, _ReduceStream):
            self._close_job(stream, output_location, output_format, final=True)
        else:
            job = self._new_job(stream.inputs, None, broadcasts=stream.broadcasts)
            stream.append(FileSinkDesc(column_names=schema.names))
            job.output_location = output_location
            job.output_schema = schema
            job.output_format = output_format
            job.is_final = True
            self.jobs.append(job)
        for job in self.jobs:
            for map_input in job.inputs:
                map_input.hints = self._compute_scan_hints(map_input)
        return PhysicalPlan(
            jobs=self.jobs,
            output_location=output_location,
            output_schema=schema,
            final_limit=final_limit,
            optimizer_notes=list(self.notes),
        )

    # -- helpers ----------------------------------------------------------------
    def _next_temp(self) -> str:
        self._temp_counter += 1
        return f"/tmp/hive/{self.query_id}/inter-{self._temp_counter}"

    def _new_job(self, inputs: List[MapInput], reduce_logic: Optional[object],
                 broadcasts: Optional[List[BroadcastSpec]] = None) -> MRJob:
        self._job_counter += 1
        return MRJob(
            job_id=f"{self.query_id}-job{self._job_counter}",
            inputs=inputs,
            reduce_logic=reduce_logic,
            broadcasts=broadcasts or [],
        )

    def _close_job(
        self,
        stream: _ReduceStream,
        location: str,
        output_format: str,
        final: bool,
    ) -> None:
        schema = stream.signature.to_schema()
        stream.job.reduce_operators.append(FileSinkDesc(column_names=schema.names))
        stream.job.output_location = location
        stream.job.output_schema = schema
        stream.job.output_format = output_format
        stream.job.is_final = final
        self.jobs.append(stream.job)

    def _materialize(self, stream) -> _MapStream:
        """Force a stream into readable files (temp dir) if it is an open
        reduce-side job; map streams pass through."""
        if isinstance(stream, _MapStream):
            return stream
        location = self._next_temp()
        self._close_job(stream, location, "sequence", final=False)
        return _MapStream(
            inputs=[MapInput(location=location, tag=0, operators=[])],
            signature=stream.signature,
        )

    # -- node dispatch --------------------------------------------------------------
    def _compile_node(self, node: LogicalNode):
        if isinstance(node, Scan):
            return self._compile_scan(node)
        if isinstance(node, Filter):
            stream = self._compile_node(node.child)
            stream.append(FilterDesc(node.predicate))
            return stream
        if isinstance(node, Project):
            stream = self._compile_node(node.child)
            stream.append(SelectDesc(node.expressions))
            stream.signature = node.signature
            return stream
        if isinstance(node, LimitNode):
            stream = self._compile_node(node.child)
            stream.append(LimitDesc(node.limit))
            return stream
        if isinstance(node, AggregateNode):
            return self._compile_aggregate(node)
        if isinstance(node, DistinctNode):
            return self._compile_distinct(node)
        if isinstance(node, JoinNode):
            return self._compile_join(node)
        if isinstance(node, SortNode):
            return self._compile_sort(node)
        if isinstance(node, UnionNode):
            return self._compile_union(node)
        raise PlanError(f"cannot compile {type(node).__name__}")

    def _compile_union(self, node: UnionNode) -> _MapStream:
        """UNION ALL: the branches' map inputs merge into one stream;
        every branch keeps its own per-input chain, later operators are
        appended to all of them."""
        inputs: List[MapInput] = []
        broadcasts: List[BroadcastSpec] = []
        for child in node.inputs:
            stream = self._materialize(self._compile_node(child))
            inputs.extend(stream.inputs)
            broadcasts.extend(stream.broadcasts)
        return _MapStream(
            inputs=inputs,
            signature=node.signature,
            broadcasts=broadcasts,
        )

    def _compile_scan(self, node: Scan) -> _MapStream:
        splits_inputs = [
            MapInput(location=node.table.location, tag=0, operators=[])
        ]
        return _MapStream(
            inputs=splits_inputs,
            signature=node.signature,
            base_table=node.table.name,
        )

    # -- aggregate ---------------------------------------------------------------
    def _compile_aggregate(self, node: AggregateNode) -> _ReduceStream:
        stream = self._materialize(self._compile_node(node.child))
        key_count = len(node.group_expressions)
        use_partials = not node.has_distinct

        if use_partials:
            aggregates = [(call.aggregate, call.argument) for call in node.calls]
            stream.append(
                MapGroupByDesc(
                    key_expressions=list(node.group_expressions),
                    aggregates=aggregates,
                )
            )
            partial_arities = [
                len(call.aggregate.partial(call.aggregate.create()))
                for call in node.calls
            ]
            flat_width = key_count + sum(partial_arities)
            sink = ReduceSinkDesc(
                key_expressions=[InputRef(i) for i in range(key_count)],
                value_expressions=[InputRef(i) for i in range(key_count, flat_width)],
            )
            logic = ReduceAggregateDesc(
                key_arity=key_count,
                aggregates=[call.aggregate for call in node.calls],
                inputs_are_partials=True,
                partial_arities=partial_arities,
            )
        else:
            values = [
                call.argument if call.argument is not None else Const(True, DataType.BOOLEAN)
                for call in node.calls
            ]
            sink = ReduceSinkDesc(
                key_expressions=list(node.group_expressions),
                value_expressions=values,
            )
            logic = ReduceAggregateDesc(
                key_arity=key_count,
                aggregates=[call.aggregate for call in node.calls],
                inputs_are_partials=False,
            )
        stream.append(sink)
        job = self._new_job(stream.inputs, logic, broadcasts=stream.broadcasts)
        if key_count == 0:
            job.num_reducers_hint = 1  # global aggregate
        return _ReduceStream(job, node.signature)

    def _compile_distinct(self, node: DistinctNode) -> _ReduceStream:
        stream = self._materialize(self._compile_node(node.child))
        width = len(node.signature)
        stream.append(
            MapGroupByDesc(
                key_expressions=[InputRef(i) for i in range(width)], aggregates=[]
            )
        )
        stream.append(
            ReduceSinkDesc(
                key_expressions=[InputRef(i) for i in range(width)],
                value_expressions=[],
            )
        )
        job = self._new_job(stream.inputs, ReduceDistinctDesc(key_arity=width),
                            broadcasts=stream.broadcasts)
        return _ReduceStream(job, node.signature)

    # -- join --------------------------------------------------------------------
    def _table_bytes(self, stream: _MapStream) -> Optional[float]:
        if stream.base_table is None:
            return None
        table = self.metastore.get_table(stream.base_table)
        try:
            return table.logical_bytes(self.hdfs)
        except Exception:
            return None

    def _estimate_stream(self, stream) -> "_SideEstimate":
        """Cost-model view of one join input.

        For a single-base-table map stream: raw logical bytes, fresh
        metastore stats (if any), selectivity of the filter conjuncts
        already applied on the chain, and a row-position -> base-column
        map for resolving join keys to column stats.  Anything else
        (materialized reduce output, union, post-map-join chain) gets an
        empty estimate and the planner falls back to seed behavior.
        """
        estimate = _SideEstimate()
        if not isinstance(stream, _MapStream) or stream.base_table is None:
            return estimate
        if len(stream.inputs) != 1:
            return estimate
        table = self.metastore.get_table(stream.base_table)
        estimate.table = table.name
        try:
            estimate.raw_bytes = table.logical_bytes(self.hdfs)
        except Exception:
            estimate.raw_bytes = None
        estimate.est_bytes = estimate.raw_bytes
        if not self._stats_enabled:
            return estimate
        stats = self.metastore.get_table_stats(table.name)
        if stats is None:
            return estimate
        estimate.stats = stats
        names = [column.name.lower() for column in table.full_schema.columns]
        # mapping[i] = base-column index feeding row position i (same walk
        # as _compute_scan_hints, restricted to the ops a scan chain has
        # before its join descriptor)
        mapping: List[int] = list(range(len(names)))
        conjuncts: List[Tuple[str, str, object]] = []
        resolved = True
        for descriptor in stream.inputs[0].operators:
            if isinstance(descriptor, FilterDesc):
                conjuncts.extend(
                    self._extract_stats_conjuncts(descriptor.predicate, names, mapping)
                )
            elif isinstance(descriptor, SelectDesc):
                if all(
                    isinstance(e, InputRef) and 0 <= e.index < len(mapping)
                    for e in descriptor.expressions
                ):
                    mapping = [mapping[e.index] for e in descriptor.expressions]
                else:
                    resolved = False
                    break
            elif isinstance(descriptor, LimitDesc):
                continue
            else:
                resolved = False
                break
        if resolved:
            estimate.column_map = [
                names[index] if 0 <= index < len(names) else None
                for index in mapping
            ]
        estimate.conjuncts = conjuncts
        if stats.has_column_stats and conjuncts:
            estimate.selectivity = stats.conjunct_selectivity(conjuncts)
        base_bytes = (
            stats.total_bytes if estimate.raw_bytes is None else estimate.raw_bytes
        )
        estimate.est_bytes = base_bytes * estimate.selectivity
        estimate.est_rows = stats.row_count * estimate.selectivity
        return estimate

    def _compile_join(self, node: JoinNode):
        left_stream = self._compile_node(node.left)
        right_stream = self._compile_node(node.right)
        threshold = self.conf.get_float(
            HIVE_MAPJOIN_SMALLTABLE_BYTES, DEFAULT_MAPJOIN_THRESHOLD
        )
        left_est = self._estimate_stream(left_stream)
        right_est = self._estimate_stream(right_stream)

        # broadcast conversion applies to equi joins and cross joins alike
        # (a cross join's empty key matches every probe row); sizing uses
        # the post-filter estimate when stats exist, raw bytes otherwise
        right_small = (
            isinstance(right_stream, _MapStream)
            and right_est.size_or_inf() < threshold
        )
        left_small = (
            isinstance(left_stream, _MapStream)
            and left_est.size_or_inf() < threshold
            and node.join_type == "inner"
        )
        if (
            right_small
            and left_small
            and left_est.has_stats
            and right_est.has_stats
            and left_est.est_bytes < right_est.est_bytes
        ):
            # both sides broadcastable: build from the smaller estimate
            right_small = False
            self.notes.append(
                f"join order: building from {left_est.table} "
                f"({_fmt_bytes(left_est.est_bytes)}) instead of "
                f"{right_est.table} ({_fmt_bytes(right_est.est_bytes)})"
            )
        if right_small:
            self._note_map_join(right_est, left_est, threshold)
            return self._map_join(node, big=left_stream, small=right_stream, swap=False)
        if left_small:
            self._note_map_join(left_est, right_est, threshold)
            return self._map_join(node, big=right_stream, small=left_stream, swap=True)

        return self._common_join(node, left_stream, right_stream, left_est, right_est)

    def _note_map_join(
        self, small: "_SideEstimate", big: "_SideEstimate", threshold: float
    ) -> None:
        build = small.table or "intermediate"
        probe = big.table or "intermediate"
        if small.has_stats:
            get_metrics().counter("optimizer.mapjoin_auto").add(1)
            detail = (
                f"est {_fmt_bytes(small.est_bytes)} "
                f"(raw {_fmt_bytes(small.raw_bytes)}, "
                f"sel {small.selectivity:.3f}, stats)"
            )
        else:
            detail = f"raw {_fmt_bytes(small.raw_bytes)}"
        self.notes.append(
            f"map-join: build {build} [{detail}] < threshold "
            f"{_fmt_bytes(threshold)}, probe {probe}"
        )

    def _map_join(self, node: JoinNode, big, small: _MapStream, swap: bool):
        small_chain: List[object] = []
        for descriptor in small.inputs[0].operators:
            small_chain.append(descriptor)
        location = small.inputs[0].location
        if len(small.inputs) != 1:
            raise PlanError("broadcast side must be a single location")
        small_width = len(small.signature)
        if swap:
            probe_keys, build_keys = list(node.right_keys), list(node.left_keys)
        else:
            probe_keys, build_keys = list(node.left_keys), list(node.right_keys)
        descriptor = MapJoinDesc(
            small_location=location,
            probe_key_expressions=probe_keys,
            build_key_expressions=build_keys,
            join_type=node.join_type,
            small_width=small_width,
            swap_output=swap,
        )
        big.append(descriptor)
        broadcast = BroadcastSpec(location=location, operators=small_chain, width=small_width)
        if isinstance(big, _MapStream):
            big.broadcasts.append(broadcast)
            big.base_table = None  # widths changed; no longer a pure table chain
        else:
            big.job.broadcasts.append(broadcast)
        big.signature = node.signature
        if node.residual is not None:
            big.append(FilterDesc(node.residual))
        return big

    def _common_join(
        self,
        node: JoinNode,
        left_stream,
        right_stream,
        left_est: Optional["_SideEstimate"] = None,
        right_est: Optional["_SideEstimate"] = None,
    ) -> _ReduceStream:
        left_est = left_est or _SideEstimate()
        right_est = right_est or _SideEstimate()
        left_keys_src = list(node.left_keys)
        right_keys_src = list(node.right_keys)

        # build-side ordering: JoinReduceLogic buffers the tag-0 side per
        # key group, so with trustworthy estimates on both sides put the
        # smaller one there.  Inner joins only (the preserved side of a
        # LEFT join must stay tag 0), and only past a margin so sketch
        # noise cannot flap the plan.  Output columns are restored by a
        # Select on the reduce side, so downstream plans are unaffected.
        swapped = (
            node.join_type == "inner"
            and not self._both_sides_same(left_stream, right_stream)
            and left_est.has_stats
            and right_est.has_stats
            and left_est.est_rows is not None
            and right_est.est_rows is not None
            and right_est.est_rows < left_est.est_rows * SWAP_MARGIN
        )
        if swapped:
            left_stream, right_stream = right_stream, left_stream
            left_est, right_est = right_est, left_est
            left_keys_src, right_keys_src = right_keys_src, left_keys_src
            get_metrics().counter("optimizer.join_swaps").add(1)
            self.notes.append(
                f"shuffle join order: buffering {left_est.table} "
                f"(~{left_est.est_rows:.0f} rows) before {right_est.table} "
                f"(~{right_est.est_rows:.0f} rows)"
            )

        skew_left, skew_right = self._plan_skew(
            node, left_keys_src, right_keys_src, left_est, right_est
        )

        left_stream = self._materialize(left_stream)
        right_stream = self._materialize(right_stream)
        left_width = len(left_stream.signature)
        right_width = len(right_stream.signature)

        cross = not node.left_keys
        left_keys = left_keys_src or [Const(0, DataType.INT)]
        right_keys = right_keys_src or [Const(0, DataType.INT)]

        left_stream.append(
            ReduceSinkDesc(
                key_expressions=list(left_keys),
                value_expressions=[InputRef(i) for i in range(left_width)],
                tag=0,
                skew=skew_left,
            )
        )
        right_stream.append(
            ReduceSinkDesc(
                key_expressions=list(right_keys),
                value_expressions=[InputRef(i) for i in range(right_width)],
                tag=1,
                skew=skew_right,
            )
        )
        for map_input in right_stream.inputs:
            map_input.tag = 1

        inputs = left_stream.inputs + right_stream.inputs
        logic = ReduceJoinDesc(
            join_type=node.join_type,
            left_width=left_width,
            right_width=right_width,
        )
        job = self._new_job(
            inputs, logic,
            broadcasts=left_stream.broadcasts + right_stream.broadcasts,
        )
        if cross:
            job.num_reducers_hint = 1
        stream = _ReduceStream(job, node.signature)
        if swapped:
            # reduce emits right+left; restore the plan's left+right order
            stream.append(
                SelectDesc(
                    [InputRef(left_width + i) for i in range(right_width)]
                    + [InputRef(i) for i in range(left_width)]
                )
            )
        if node.residual is not None:
            stream.append(FilterDesc(node.residual))
        return stream

    @staticmethod
    def _both_sides_same(left_stream, right_stream) -> bool:
        """Self-joins share MapInput objects only when streams alias."""
        return left_stream is right_stream

    def _plan_skew(
        self,
        node: JoinNode,
        left_keys: List[BoundExpression],
        right_keys: List[BoundExpression],
        left_est: "_SideEstimate",
        right_est: "_SideEstimate",
    ) -> Tuple[Optional[SkewRouteDesc], Optional[SkewRouteDesc]]:
        """SharesSkew-style routing for heavy join keys.

        The side whose key column's heavy-hitter sketch crosses
        ``repro.skewjoin.threshold`` has those keys *split* round-robin
        over the reducers; the other side *replicates* its matching rows
        to the same targets, so every split partition joins a disjoint
        big-side slice against the complete other side.  Only the
        preserved (left) side of a LEFT join may be split; cross joins
        are excluded (single reducer anyway).
        """
        threshold = self._skew_threshold
        if not self._stats_enabled or threshold <= 0 or not node.left_keys:
            return None, None
        if node.join_type not in ("inner", "left"):
            return None, None

        def heavy_of(estimate: "_SideEstimate", keys) -> List[Tuple[object, float]]:
            column_stats = estimate.key_column_stats(keys)
            if column_stats is None:
                return []
            return column_stats.heavy_hitters(threshold)

        left_heavy = heavy_of(left_est, left_keys)
        right_heavy = (
            heavy_of(right_est, right_keys) if node.join_type == "inner" else []
        )
        if not left_heavy and not right_heavy:
            return None, None
        # split the side that is both skewed and larger; ties prefer left
        if left_heavy and right_heavy:
            left_size = left_est.est_rows or 0.0
            right_size = right_est.est_rows or 0.0
            split_left = left_size >= right_size
        else:
            split_left = bool(left_heavy)
        hitters = left_heavy if split_left else right_heavy
        heavy_keys = tuple((value,) for value, _share in hitters)
        split_desc = SkewRouteDesc(heavy_keys=heavy_keys, mode="split")
        replicate_desc = SkewRouteDesc(heavy_keys=heavy_keys, mode="replicate")
        split_est = left_est if split_left else right_est
        side_name = split_est.table or ("left" if split_left else "right")
        get_metrics().counter("optimizer.skew_splits").add(1)
        shares = ", ".join(
            f"{value!r}={share:.2f}" for value, share in hitters[:4]
        )
        self.notes.append(
            f"skew join: splitting {len(heavy_keys)} heavy key(s) on "
            f"{side_name} [{shares}] (threshold {threshold:.2f})"
        )
        if split_left:
            return split_desc, replicate_desc
        return replicate_desc, split_desc

    # -- sort --------------------------------------------------------------------
    def _compile_sort(self, node: SortNode) -> _ReduceStream:
        stream = self._materialize(self._compile_node(node.child))
        width = len(stream.signature)
        stream.append(
            ReduceSinkDesc(
                key_expressions=list(node.sort_expressions),
                value_expressions=[InputRef(i) for i in range(width)],
            )
        )
        job = self._new_job(stream.inputs, ReduceSortDesc(), broadcasts=stream.broadcasts)
        job.sort_directions = list(node.ascending)
        job.num_reducers_hint = 1  # Hive: total ORDER BY -> single reducer
        return _ReduceStream(job, node.signature)

    # -- scan hints ---------------------------------------------------------------
    def _compute_scan_hints(self, map_input: MapInput) -> ScanHints:
        """Column pruning + stats pushdown for base-table inputs.

        Walks the chain while row positions still equal scan columns;
        stops at the first width-changing operator.  Falls back to "all
        columns" when the chain consumes rows opaquely — or when the
        directory's files disagree on their column names: positions are
        resolved to names once, against one schema, and a scan leaves
        out whatever the names do not cover.
        """
        files = self.hdfs.list_dir(map_input.location)
        if not files:
            return ScanHints()
        schemas = [
            [column.name.lower() for column in data_file.schema.columns]
            for data_file in files
        ]
        names = schemas[0]
        if schemas.count(names) != len(schemas):
            return ScanHints()

        # mapping[i] = scan-column index feeding position i of the current
        # row; pure-InputRef Selects (column pruner output) are looked
        # through so Filters above them still yield stats conjuncts
        mapping: List[int] = list(range(len(names)))

        def map_refs(expression) -> Optional[List[int]]:
            out = []
            for index in referenced_columns(expression):
                if not 0 <= index < len(mapping):
                    return None
                out.append(mapping[index])
            return out

        needed: set = set()
        conjuncts: List[Tuple[str, str, object]] = []
        resolved = True
        for descriptor in map_input.operators:
            if isinstance(descriptor, FilterDesc):
                refs = map_refs(descriptor.predicate)
                if refs is None:
                    resolved = False
                    break
                needed.update(refs)
                conjuncts.extend(
                    self._extract_stats_conjuncts(descriptor.predicate, names, mapping)
                )
            elif isinstance(descriptor, SelectDesc):
                for expression in descriptor.expressions:
                    refs = map_refs(expression)
                    if refs is None:
                        resolved = False
                        break
                    needed.update(refs)
                if not resolved:
                    break
                if all(isinstance(e, InputRef) for e in descriptor.expressions):
                    mapping = [mapping[e.index] for e in descriptor.expressions]
                    continue  # keep walking: positions still map to scan columns
                break
            elif isinstance(descriptor, MapGroupByDesc):
                expressions = list(descriptor.key_expressions) + [
                    argument for _agg, argument in descriptor.aggregates
                    if argument is not None
                ]
                for expression in expressions:
                    refs = map_refs(expression)
                    if refs is not None:
                        needed.update(refs)
                break
            elif isinstance(descriptor, ReduceSinkDesc):
                for expression in (
                    descriptor.key_expressions + descriptor.value_expressions
                ):
                    refs = map_refs(expression)
                    if refs is not None:
                        needed.update(refs)
                break
            elif isinstance(descriptor, MapJoinDesc):
                for expression in descriptor.probe_key_expressions:
                    refs = map_refs(expression)
                    if refs is not None:
                        needed.update(refs)
                resolved = False  # widths change; downstream refs unknown
                break
            elif isinstance(descriptor, FileSinkDesc):
                needed.update(mapping)  # every surviving column is written
                break
            elif isinstance(descriptor, LimitDesc):
                continue  # no column references
            else:
                resolved = False
                break
        if not resolved or not needed:
            return ScanHints(columns=None, stats_conjuncts=conjuncts)
        valid = [index for index in needed if 0 <= index < len(names)]
        return ScanHints(
            columns=sorted({names[index] for index in valid}),
            stats_conjuncts=conjuncts,
        )

    @staticmethod
    def _extract_stats_conjuncts(
        predicate: BoundExpression,
        names: List[str],
        mapping: Optional[List[int]] = None,
    ) -> List[Tuple[str, str, object]]:
        def column_of(index: int) -> Optional[str]:
            if mapping is not None:
                if not 0 <= index < len(mapping):
                    return None
                index = mapping[index]
            return names[index] if 0 <= index < len(names) else None

        out: List[Tuple[str, str, object]] = []
        for conjunct in split_conjuncts(predicate):
            if not isinstance(conjunct, bexpr.Comparison):
                continue
            if conjunct.op == "<>":
                continue
            left, right = conjunct.left, conjunct.right
            if isinstance(left, InputRef) and isinstance(right, Const):
                column = column_of(left.index)
                if column is not None:
                    out.append((column, conjunct.op, right.value))
            elif isinstance(left, Const) and isinstance(right, InputRef):
                flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
                column = column_of(right.index)
                if column is not None:
                    out.append((column, flipped[conjunct.op], left.value))
        return out


def explain_plan(plan: PhysicalPlan) -> str:
    """Human-readable physical plan (used in tests and EXPLAIN output)."""
    lines = [f"physical plan: {plan.num_jobs} job(s) -> {plan.output_location}"]
    for note in plan.optimizer_notes:
        lines.append(f"  optimizer: {note}")
    for job in plan.jobs:
        kind = "map-only" if job.is_map_only else type(job.reduce_logic).__name__
        lines.append(f"  {job.job_id} [{kind}] -> {job.output_location}")
        for map_input in job.inputs:
            ops = ", ".join(_describe_op(op) for op in map_input.operators)
            cols = ",".join(map_input.hints.columns) if map_input.hints.columns else "*"
            lines.append(f"    in[{map_input.tag}] {map_input.location} cols({cols}): {ops}")
        if job.reduce_operators:
            ops = ", ".join(_describe_op(op) for op in job.reduce_operators)
            lines.append(f"    reduce: {ops}")
        for broadcast in job.broadcasts:
            lines.append(f"    broadcast: {broadcast.location}")
    return "\n".join(lines)


def _describe_op(op: object) -> str:
    name = type(op).__name__
    if isinstance(op, ReduceSinkDesc) and op.skew is not None:
        return f"{name}[skew:{op.skew.mode}x{len(op.skew.heavy_keys)}]"
    return name
