"""Engine interface + machinery shared by all engines.

The functional side of running an :class:`~repro.plan.physical.MRJob`
(expanding splits, loading broadcast tables, partition/sort/group, output
writing) is identical across engines; what differs is *when* things
happen and *what they cost*.  This module holds the shared functional
pieces and the timing record model the benchmarks consume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Collection,
    Dict,
    Generator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.config import (
    Configuration,
    HEARTBEAT_ENABLED,
    HIVE_DATAMPI_PARALLELISM,
    HIVE_REDUCERS_BYTES_PER_REDUCER,
    LEASE_AUDIT,
)
from repro.common.rows import ColumnBatch, Schema
from repro.common.units import GB, MB
from repro.exec.mapper import ExecMapper, ExecReducer, MapTaskResult
from repro.exec.operators import Collector, FileSinkDesc
from repro.exec.reduce import key_comparator
from repro.exec.shuffle import Segments, split_positions
from repro.exec.vectorized import BroadcastTable
from repro.obs import MetricsRegistry, Span, Tracer, get_metrics
from repro.plan.physical import MapInput, MRJob, PhysicalPlan
from repro.simulate import (
    Cluster,
    CostModel,
    FaultInjector,
    FaultPlan,
    GangLease,
    LeaseManager,
    LeaseOwner,
    MetricsSampler,
    Simulator,
    SlotPool,
)
from repro.storage.formats.orc import OrcStoredFile
from repro.storage.hdfs import HDFS, FileSplit

Row = Tuple[object, ...]

BYTES_PER_REDUCER_DEFAULT = 1 * GB


# ---------------------------------------------------------------------------
# timing records (what the paper's breakdowns are made of)
# ---------------------------------------------------------------------------

@dataclass
class TaskTiming:
    """One task's lifecycle; times are simulated seconds from query start."""

    task_id: str
    kind: str  # 'map' | 'reduce' | 'o' | 'a'
    node: int = -1
    scheduled: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    rows_read: int = 0
    kv_pairs: int = 0
    kv_bytes: float = 0.0  # logical (scaled) shuffle bytes produced/consumed
    attempts: int = 1  # executions it took (failures + the success)
    speculative: bool = False  # won by a speculative backup attempt
    # instrumentation for Figs 2 and 6
    collect_samples: List[Tuple[float, int]] = field(default_factory=list)
    send_events: List[float] = field(default_factory=list)
    span: Optional[Span] = None  # this task's trace span (child of the job's)


@dataclass
class JobTiming:
    """Per-job phase breakdown matching the paper's methodology (§V-B):

    * ``startup`` — job submitted until the first map/O task is invoked;
    * ``map_shuffle`` — first map start until shuffle data is fully
      available on the reduce side (covers Hadoop's copy phase and
      DataMPI's O phase);
    * ``others`` — the rest (merge/reduce/output/synchronization).
    """

    job_id: str
    submitted: float = 0.0
    first_task_started: float = 0.0
    shuffle_done: float = 0.0
    finished: float = 0.0
    num_maps: int = 0
    num_reducers: int = 0
    shuffle_logical_bytes: float = 0.0
    tasks: List[TaskTiming] = field(default_factory=list)
    restarts: int = 0  # whole-job resubmissions (DataMPI gang recovery)
    failed_attempts: int = 0  # task attempts that died (both engines)
    span: Optional[Span] = None  # this job's trace span (engine-relative time)

    @property
    def total(self) -> float:
        return self.finished - self.submitted

    @property
    def startup(self) -> float:
        return self.first_task_started - self.submitted

    @property
    def map_shuffle(self) -> float:
        return max(0.0, self.shuffle_done - self.first_task_started)

    @property
    def others(self) -> float:
        return max(0.0, self.total - self.startup - self.map_shuffle)


@dataclass
class PlanResult:
    """Outcome of executing a physical plan on one engine."""

    rows: List[Row]
    schema: Schema
    jobs: List[JobTiming] = field(default_factory=list)
    total_seconds: float = 0.0
    engine: str = "local"
    metrics: List[object] = field(default_factory=list)  # ResourceSamples
    spans: List[Span] = field(default_factory=list)  # one job span per job
    fault_events: List[object] = field(default_factory=list)  # FaultEvents delivered
    fallback_from: Optional[str] = None  # engine that degraded onto this one

    @property
    def total_attempts(self) -> int:
        return sum(task.attempts for job in self.jobs for task in job.tasks)


# ---------------------------------------------------------------------------
# tracing/metrics glue shared by the engines
# ---------------------------------------------------------------------------

def open_job_span(tracer: Tracer, engine_name: str, job: MRJob,
                  start: float,
                  owner: Optional[LeaseOwner] = None) -> Span:
    """Open the per-job root span (engine-relative simulated time).

    Under the workload scheduler, *owner* attributes the span to the
    submitting query and its scheduling pool so concurrent queries'
    jobs stay distinguishable on the shared timeline."""
    attributes = {"engine": engine_name, "job_id": job.job_id}
    if owner is not None:
        attributes["query"] = owner.query_id
        attributes["pool"] = owner.pool
    return tracer.start(job.job_id, start=start, category="job", **attributes)


def close_job_span(timing: JobTiming) -> None:
    """Finish a job span from its timing record, attaching the paper's
    phase sections (startup / map-shuffle / others) as child spans."""
    span = timing.span
    if span is None:
        return
    span.finish(
        timing.finished,
        num_maps=timing.num_maps,
        num_reducers=timing.num_reducers,
        shuffle_bytes=timing.shuffle_logical_bytes,
    )
    for name, start, end in (
        ("startup", timing.submitted, timing.first_task_started),
        ("map-shuffle", timing.first_task_started, timing.shuffle_done),
        ("others", timing.shuffle_done, timing.finished),
    ):
        if end > start:
            span.start_child(name, start, category="phase").finish(end)


def open_task(timing: JobTiming, task_id: str, kind: str, node: int,
              now: float) -> TaskTiming:
    """Start a task record under *timing*, its span under the job span."""
    task = TaskTiming(task_id=task_id, kind=kind, node=node, scheduled=now)
    timing.tasks.append(task)
    if timing.span is not None:
        task.span = timing.span.start_child(
            task_id, now, category="task", kind=kind, node=node,
        )
    return task


def close_task_span(task: TaskTiming) -> None:
    if task.span is None:
        return
    task.span.finish(
        task.finished,
        rows_read=task.rows_read,
        kv_pairs=task.kv_pairs,
        kv_bytes=task.kv_bytes,
    )


def child_span(task: TaskTiming, name: str, start: float,
               **attributes) -> Span:
    """Open a child of *task*'s span (category *name*).  An untraced
    task gets a detached span, so callers finish it unconditionally."""
    if task.span is None:
        return Span(name, start)
    return task.span.start_child(name, start, category=name, **attributes)


def record_job_metrics(engine_name: str, timing: JobTiming, total_slots: int,
                       registry: Optional[MetricsRegistry] = None) -> None:
    """Fold a finished job's timing into the process-wide registry."""
    metrics = registry or get_metrics()
    metrics.counter(f"{engine_name}.jobs").add(1)
    metrics.counter(f"{engine_name}.shuffle.bytes").add(
        max(0.0, timing.shuffle_logical_bytes)
    )
    metrics.histogram(f"{engine_name}.job.startup_seconds").observe(timing.startup)
    metrics.histogram(f"{engine_name}.job.total_seconds").observe(timing.total)
    if total_slots > 0 and timing.num_maps > 0:
        waves = -(-timing.num_maps // total_slots)  # ceil division
        metrics.histogram(f"{engine_name}.slot.waves").observe(waves)


# ---------------------------------------------------------------------------
# reducer-count policy (paper §IV-D)
# ---------------------------------------------------------------------------

def decide_num_reducers(
    job: MRJob,
    num_maps: int,
    total_input_bytes: float,
    conf: Configuration,
    is_last_job: bool,
    max_slots: int,
) -> int:
    """Hive's reducer heuristic, plus the paper's *enhanced* mode.

    default  : ceil(input bytes / bytes-per-reducer), clamped to the slot
               count — Hive's ``hive.exec.reducers.bytes.per.reducer``;
    enhanced : #A = #O, and 1 for the query's last stage (paper §IV-D).
    Explicit plan hints (ORDER BY's single reducer, cross joins) win.
    """
    if job.is_map_only:
        return 0
    if job.num_reducers_hint is not None:
        return job.num_reducers_hint
    mode = (conf.get(HIVE_DATAMPI_PARALLELISM, "default") or "default").lower()
    if mode == "enhanced":
        if is_last_job:
            return 1
        return max(1, min(num_maps, max_slots))
    bytes_per_reducer = conf.get_float(
        HIVE_REDUCERS_BYTES_PER_REDUCER, BYTES_PER_REDUCER_DEFAULT
    )
    estimate = int(total_input_bytes / bytes_per_reducer) + 1
    return max(1, min(estimate, max_slots))


# ---------------------------------------------------------------------------
# functional job pieces
# ---------------------------------------------------------------------------

@dataclass
class TaggedSplit:
    """A file split plus the map chain that will consume it."""

    split: FileSplit
    tag: int
    operators: List[object]
    map_input: MapInput

    @property
    def logical_bytes(self) -> float:
        return self.split.logical_bytes


def _partition_pruned(split: FileSplit, conjuncts) -> bool:
    """True if the file's Hive partition values contradict a pushed-down
    conjunct — the whole partition directory is skipped (no task, no I/O)."""
    if not split.partition_values or not conjuncts:
        return False
    for column, op, literal in conjuncts:
        if column not in split.partition_values:
            continue
        value = split.partition_values[column]
        if value is None or literal is None:
            continue
        try:
            satisfied = {
                "=": value == literal,
                "<": value < literal,
                "<=": value <= literal,
                ">": value > literal,
                ">=": value >= literal,
            }.get(op, True)
        except TypeError:
            satisfied = True
        if not satisfied:
            return True
    return False


def expand_job_splits(job: MRJob, hdfs: HDFS) -> List[TaggedSplit]:
    """All input splits of a job, each carrying its operator chain.

    Splits from partitions whose values contradict the input's pushed-down
    conjuncts are pruned here (Hive's partition pruning).
    """
    tagged: List[TaggedSplit] = []
    for map_input in job.inputs:
        conjuncts = map_input.hints.stats_conjuncts
        for split in hdfs.dir_splits(map_input.location):
            if _partition_pruned(split, conjuncts):
                continue
            tagged.append(
                TaggedSplit(
                    split=split,
                    tag=map_input.tag,
                    operators=map_input.operators,
                    map_input=map_input,
                )
            )
    return tagged


def scan_split_batch(tagged: TaggedSplit):
    """Read a split as a column batch, honoring the scan hints (ORC
    pruning and stripe skipping).

    Returns (:class:`~repro.common.rows.ColumnBatch`, logical bytes).
    """
    hints = tagged.map_input.hints
    result = tagged.split.stored.scan_batch(
        tagged.split.row_start,
        tagged.split.row_count,
        columns=hints.columns,
        stats_conjuncts=hints.stats_conjuncts or None,
    )
    return result.batch, result.bytes_read * tagged.split.scale


class MapOutputCollector(Collector):
    """Per-map collector bucketing pairs by reduce partition.

    Shared by every cluster engine that materializes map output for a
    shuffle (Hadoop spills it to local disk; LLAP keeps it in daemon
    memory) — the bucketing and byte accounting are identical.  A
    partition holds :class:`~repro.exec.shuffle.Segments` of the sink's
    runs, not pairs.
    """

    def __init__(self, num_partitions: int):
        self.partitions: List[Segments] = [Segments() for _ in range(num_partitions)]
        self.partition_bytes: List[int] = [0] * num_partitions

    def collect_batch(self, partition_ids, run) -> None:
        for partition, positions in split_positions(
            partition_ids, len(self.partitions)
        ):
            self.partitions[partition].add(run, positions)
            self.partition_bytes[partition] += sum(run.sizes_at(positions))

    @property
    def total_bytes(self) -> int:
        # summed on demand (per batch / at close) instead of maintaining
        # a third counter on the per-batch path
        return sum(self.partition_bytes)


def make_batches(rows, total_bytes: float, target_mb: float, min_rows: int):
    """Chunk a split's payload into the engines' compute/I-O interleave
    granularity.

    ``rows`` is a row list or a dense :class:`ColumnBatch` (both support
    ``len`` and contiguous slicing); each chunk carries a byte share
    proportional to its row count.  Simulated charges are computed from
    these shares, so the arithmetic — including the empty payload's one
    chunk and the float division — must not change.
    """
    if not rows:
        return [(rows, total_bytes)] if total_bytes > 0 else []
    target = target_mb * MB
    num_batches = max(1, int(total_bytes / target))
    batch_rows = max(min_rows, (len(rows) + num_batches - 1) // num_batches)
    batches = []
    for start in range(0, len(rows), batch_rows):
        chunk = rows[start : start + batch_rows]
        batches.append((chunk, total_bytes * len(chunk) / len(rows)))
    return batches


class MapCompute(NamedTuple):
    """What :func:`run_map_compute` hands back for replay."""

    bytes_to_read: float  # logical bytes the split's scan read
    records: List[Tuple[float, object]]  # (batch bytes, record()) per batch
    result: MapTaskResult


def run_map_compute(
    tagged: TaggedSplit,
    collector: Collector,
    *,
    num_partitions: int,
    small_tables: Optional[Dict[str, BroadcastTable]],
    map_only: bool,
    batching: Optional[Tuple[float, int]] = None,
    record: Callable[[], object] = lambda: None,
) -> MapCompute:
    """Scan one split and push it through its map chain — the pure
    compute half of a map task, with no simulator access.

    A simulated map attempt *computes* (scan, operator pipeline,
    ReduceSink encoding into *collector*) and *accounts* (simulated
    disk/CPU/network seconds, spills, buffer emission).  Every engine
    computes the whole split here first, then replays ``records``
    against the simulator, so an attempt interrupted mid-replay has
    still done all of its functional work exactly once.

    *batching* is ``(target MB, minimum rows)`` for :func:`make_batches`,
    or ``None`` to process the split as one batch.  *record* is called
    after each batch and captures whatever mid-task quantity the engine's
    accounting reads at that point.
    """
    payload, bytes_to_read = scan_split_batch(tagged)
    mapper = ExecMapper(
        tagged.operators,
        collector=None if map_only else collector,
        num_partitions=num_partitions,
        small_tables=small_tables,
        vectorized=True,
    )
    if batching is None:
        batches = [(payload, bytes_to_read)]
    else:
        batches = make_batches(payload, bytes_to_read, *batching)
    records = []
    for chunk, chunk_bytes in batches:
        mapper.process_batch(chunk)
        records.append((chunk_bytes, record()))
    return MapCompute(bytes_to_read, records, mapper.close())


def map_cpu_ms(cpu, tagged: TaggedSplit, nbytes: float,
               decode_bytes: Optional[float] = None) -> float:
    """CPU milliseconds to push *nbytes* of a split through the map
    pipeline at the cost model's rates (*cpu*, a
    :class:`~repro.simulate.costmodel.CpuModel`); ORC input additionally
    pays the decode rate on *decode_bytes* (default: all of *nbytes*)."""
    cpu_ms = nbytes / MB * cpu.map_ms_per_mb
    if isinstance(tagged.split.stored, OrcStoredFile):
        if decode_bytes is None:
            decode_bytes = nbytes
        cpu_ms += decode_bytes / MB * cpu.orc_decode_ms_per_mb
    return cpu_ms


def load_broadcast_tables(
    job: MRJob, hdfs: HDFS, *, vectorized: bool
) -> Dict[str, Union[List[Row], BroadcastTable]]:
    """Load + preprocess every broadcast (map-join) table of a job.

    The engines (``vectorized=True``) read each table's files as columns,
    in path order, run its broadcast chain on the column kernels and
    keep the dense output in a :class:`BroadcastTable`, which also owns
    the hash tables the job's map-join operators build over it — a
    table no row reaches (no file, empty files, a chain that drops
    every row) is ``spec.width`` empty columns; the reference executor
    reads the table's rows and runs the row operators.  Each table is
    loaded once per job run."""
    small: Dict[str, Union[List[Row], BroadcastTable]] = {}
    for spec in job.broadcasts:
        if vectorized:
            table = ColumnBatch.concat([
                data_file.stored.scan_batch(0, data_file.row_count).batch
                for data_file in hdfs.list_dir(spec.location)
            ])
        else:
            table = hdfs.dir_rows(spec.location)
        if spec.operators:
            mapper = ExecMapper(
                list(spec.operators) + [FileSinkDesc()], collector=None,
                num_partitions=1, vectorized=vectorized,
            )
            mapper.process_batch(table)
            table = mapper.close().output
        if vectorized:
            if not table.size:  # no row reached it: it keeps its width
                table = ColumnBatch([[] for _ in range(spec.width)], 0)
            table = BroadcastTable(table)
        small[spec.location] = table
    return small


def job_input_scale(job: MRJob, hdfs: HDFS) -> float:
    """Bytes-weighted average scale of a job's inputs (used to scale the
    job's outputs so downstream cost accounting stays consistent)."""
    total_actual = 0.0
    total_logical = 0.0
    for map_input in job.inputs:
        for data_file in hdfs.list_dir(map_input.location):
            total_actual += data_file.stored.total_bytes
            total_logical += data_file.logical_bytes
    if total_actual <= 0:
        return 1.0
    return total_logical / total_actual


class JobInputs(NamedTuple):
    """What :func:`load_job_inputs` reads from HDFS at job start."""

    splits: List[TaggedSplit]
    small_tables: Dict[str, Union[List[Row], BroadcastTable]]
    scale: float  # bytes-weighted input scale, applied to the job's outputs
    total_bytes: float  # logical bytes over all splits


def load_job_inputs(job: MRJob, hdfs: HDFS, *, vectorized: bool) -> JobInputs:
    """The functional prologue every engine runs when a job starts."""
    splits = expand_job_splits(job, hdfs)
    return JobInputs(
        splits,
        load_broadcast_tables(job, hdfs, vectorized=vectorized),
        job_input_scale(job, hdfs),
        sum(tagged.logical_bytes for tagged in splits),
    )


def run_reducer_functionally(
    job: MRJob,
    shuffle_input,
    small_tables: Optional[Dict[str, List[Row]]] = None,
    *,
    vectorized: bool,
) -> Union[List[Row], ColumnBatch]:
    """Sort, group and reduce one partition's *shuffle_input* — the
    :class:`~repro.exec.shuffle.Segments` an engine's partition received
    (``len()`` is its pair count), a list of pair objects from the
    reference executor; returns the task's output as its tail produced
    it (see :class:`MapTaskResult`).  *vectorized* names the caller's
    role, as for :class:`ExecMapper`."""
    reducer = ExecReducer(
        job.reduce_logic,
        job.reduce_operators,
        small_tables=small_tables,
        vectorized=vectorized,
    )
    return reducer.run(shuffle_input, job.sort_directions).output


def write_task_output(
    job: MRJob,
    hdfs: HDFS,
    task_index: int,
    rows: Union[Sequence[Row], ColumnBatch],
    scale: float,
    writer_node: Optional[int] = None,
):
    """Write one task's output part-file under the job's output dir —
    *rows* as the task produced it, columns or row tuples.

    The job id participates in the file name so INSERT INTO (append)
    never collides with files from earlier jobs in the same directory.
    """
    path = f"{job.output_location}/{job.job_id}-part-{task_index:05d}"
    return hdfs.write(
        path,
        job.output_schema,
        rows,
        format_name=job.output_format,
        scale=scale,
        writer_node=writer_node,
        partition_values=job.output_partition_values,
    )


def final_sorted_rows(plan: PhysicalPlan, hdfs: HDFS) -> List[Row]:
    """Assemble the query's final row set from the plan's output dir —
    empty for a plan that returns none (INSERT / CTAS: the target table
    is not read back).

    When the last job was a total ORDER BY, its single part-file is
    already ordered; otherwise part-file order is used (Hive semantics:
    unordered).  ``final_limit`` is applied exactly here.
    """
    if not plan.returns_rows:
        return []
    rows = hdfs.dir_rows(plan.output_location)
    if plan.final_limit is not None:
        rows = rows[: plan.final_limit]
    return rows


def hdfs_write_pipeline(cluster, node, data_file):
    """Coroutine charging a replicated HDFS write of *data_file* from
    *node*: the full file hits the local disk; each remote replica gets
    its blocks over the network plus a remote disk write."""
    total = data_file.logical_bytes
    if total <= 0:
        return
    num_workers = len(cluster.workers)
    local_index = node.node_id - 1
    remote_bytes = {}
    for block in data_file.blocks:
        for location in block.locations[1:]:
            replica = location % num_workers
            if replica != local_index:
                remote_bytes[replica] = remote_bytes.get(replica, 0.0) + block.logical_bytes
    yield from node.disk_write(total)
    for replica_index, nbytes in sorted(remote_bytes.items()):
        replica = cluster.workers[replica_index]
        yield from cluster.network_transfer(node, replica, nbytes)
        yield from replica.disk_write(nbytes)


def pick_read_source(cluster, tagged: TaggedSplit, node_index: int) -> Optional[int]:
    """Which worker streams a split to *node_index*: ``None`` for a local
    read, otherwise the first *live* replica host (replica failover when
    a datanode died).  Falls back to the first replica if every replica
    host is down — degenerate, but it keeps the simulation progressing."""
    num_workers = len(cluster.workers)
    hosts = [h % num_workers for h in tagged.split.hosts]
    if node_index in hosts:
        return None
    for host in hosts:
        if cluster.workers[host].alive:
            return host
    return hosts[0] if hosts else None


def charge_split_read(cluster, node, node_index: int, tagged: TaggedSplit,
                      nbytes: float):
    """Coroutine charging a read of *nbytes* of a split on *node*: local
    disk, or a live replica's disk plus the network when the task is
    remote."""
    if nbytes <= 0:
        return
    source_index = pick_read_source(cluster, tagged, node_index)
    if source_index is None:
        yield from node.disk_read(nbytes)
    else:
        source = cluster.workers[source_index]
        yield from source.disk_read(nbytes)
        yield from cluster.network_transfer(source, node, nbytes)


def pick_node(cluster, preferred: int, salt: int,
              blacklist: Collection[int] = (), spread: int = 0) -> int:
    """Deterministic placement that avoids dead and draining workers and
    those in *blacklist*; the first execution (``salt == 0``) keeps its
    locality-preferred node.

    When the preferred node itself is gone, *spread* (the task's own
    index) fans displaced tasks across the survivors instead of
    stampeding them all onto the same fallback node.
    """
    live = [i for i, node in enumerate(cluster.workers) if node.schedulable]
    if not live:  # everything draining: fall back to merely-alive
        live = [i for i, node in enumerate(cluster.workers) if node.alive]
    candidates = [i for i in live if i not in blacklist] or live
    if not candidates:
        return preferred  # whole cluster down: degenerate fallback
    if preferred not in candidates:
        salt += spread
    elif salt == 0:
        return preferred
    return candidates[(preferred + salt) % len(candidates)]


def assign_splits_locality(splits: Sequence[TaggedSplit], num_workers: int) -> List[int]:
    """Greedy locality-aware task placement shared by both engines: each
    split goes to its least-loaded replica host unless that host is far
    behind the global minimum (then go remote for balance)."""
    load = [0] * num_workers
    assignment: List[int] = []
    for tagged in splits:
        hosts = [h % num_workers for h in tagged.split.hosts] or list(range(num_workers))
        chosen = min(hosts, key=lambda h: (load[h], h))
        if load[chosen] > min(load) + 2:
            chosen = min(range(num_workers), key=lambda h: (load[h], h))
        load[chosen] += 1
        assignment.append(chosen)
    return assignment


class EngineRuntime:
    """One shared simulated cluster any number of plan executions run in.

    Solo mode builds a fresh runtime per ``run_plan``, so a statement
    that ``Driver.execute`` runs has a cluster of its own; the workload
    scheduler builds one runtime per session and drives many queries'
    statement lifecycles through it concurrently.  Either way a failed
    DataMPI plan degrades onto the Hadoop engine *inside the same
    simulation*.  With *with_metrics* the runtime carries a 1 Hz
    :class:`MetricsSampler`, which the statement lifecycle starts with
    the plan.

    *model* is the :class:`~repro.simulate.CostModel` that prices
    everything simulated here: the cluster is built from its ``cluster``
    block, and every plan executed in the runtime reads its costs from
    :attr:`model`, whichever engine runs it.

    Slot access goes through :attr:`leases`; engine-private per-node
    pools (Hadoop reduce slots, DataMPI A slots) come from
    :meth:`aux_slots` so concurrent queries on the same engine contend
    for them too instead of conjuring private copies.  Anything else an
    engine keeps per simulated world (llap's daemon fleet) lives in
    :meth:`engine_state` and is closed with the runtime.
    """

    def __init__(
        self,
        model: CostModel,
        conf: Optional[Configuration] = None,
        with_metrics: bool = False,
        lease_policy: str = "fifo",
    ):
        conf = conf or Configuration()
        self.model = model
        self.sim = Simulator()
        self.tracer = Tracer()
        self.tracer.set_clock(lambda: self.sim.now)
        self.cluster = Cluster(self.sim, model.cluster, metrics=get_metrics())
        self.injector = FaultInjector(
            self.sim, self.cluster, FaultPlan.from_conf(conf),
            tracer=self.tracer, metrics=get_metrics(),
            heartbeat=conf.get_bool(HEARTBEAT_ENABLED, True),
        )
        self.injector.start()
        # elastic scale-up: engines hold references to the per-worker aux
        # pool lists, so growth must append in place before any placement
        # can index the new worker
        self.cluster.on_join(self._grow_aux_slots)
        self.leases = LeaseManager(
            self.sim, policy=lease_policy,
            audit=conf.get_bool(LEASE_AUDIT, False),
        )
        self.sampler = MetricsSampler(self.cluster) if with_metrics else None
        self._aux_slots: Dict[str, List[SlotPool]] = {}
        self._engine_state: Dict[str, object] = {}
        self._closed = False

    def aux_slots(self, key: str, capacity: int, suffix: str) -> List[SlotPool]:
        """Per-worker auxiliary slot pools, shared by every plan that asks
        for the same *key* (lazy so unused engines cost nothing)."""
        pools = self._aux_slots.get(key)
        if pools is None:
            pools = [
                SlotPool(self.sim, capacity, f"{node.name}.{suffix}")
                for node in self.cluster.workers
            ]
            self._aux_slots[key] = pools
        return pools

    def engine_state(self, key: str, factory: Callable[[], object]):
        """Engine-owned state that lives exactly as long as this runtime,
        shared by every plan that asks for the same *key* (lazy, like
        :meth:`aux_slots`).  :meth:`close` calls each value's ``close()``."""
        state = self._engine_state.get(key)
        if state is None:
            state = self._engine_state[key] = factory()
        return state

    def _grow_aux_slots(self, node, worker_index: int) -> None:
        for key, pools in self._aux_slots.items():
            capacity = (pools[0].capacity if pools
                        else self.model.cluster.slots_per_node)
            suffix = pools[0].name.split(".", 1)[1] if pools else key
            pools.append(SlotPool(self.sim, capacity, f"{node.name}.{suffix}"))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.sampler is not None:
            self.sampler.stop()
        for state in self._engine_state.values():
            state.close()  # before the injector: they hold subscriptions
        self.injector.close()


class SlotHold:
    """One task body's single slot, from request to give-back.

    :meth:`take` waits in line for the slot; :meth:`give_back` returns
    it in whatever state it is in — a held slot is released, a request
    still in line (or granted but not yet taken up) is cancelled — and
    may run again after another :meth:`take` (an llap reduce hands its
    slot back while a lost map re-runs).  A slot checked out of a
    granted *gang* lease is held from the start.
    """

    __slots__ = ("leases", "pool", "owner", "request", "held")

    def __init__(self, leases: LeaseManager, pool: SlotPool,
                 owner: Optional[LeaseOwner],
                 gang: Optional[GangLease] = None):
        self.leases = leases
        self.pool = pool
        self.owner = owner
        self.request = None
        self.held = gang is not None
        if gang is not None:
            gang.checkout(pool)  # the task takes over its release duty

    def take(self):
        """Generator: request the slot unless it is held, and wait."""
        if not self.held:
            self.request = self.leases.acquire(self.pool, self.owner)
            yield self.request
            self.held = True

    def give_back(self) -> None:
        if self.held:
            self.leases.release(self.pool, self.owner)
        elif self.request is not None:
            self.leases.cancel(self.pool, self.request, self.owner)
        self.held = False
        self.request = None


class JobRun:
    """One run of a job on a cluster engine: what its task bodies share,
    and the scaffolding each body wraps around its own charges — slot
    hold, start stamp, doomed-map burn, reduce tail and commit point.

    Hadoop and llap run one :class:`~repro.engines.lifecycle.JobContext`
    per job, DataMPI one per ``mpidrun`` submission; each defines
    :meth:`commit`.
    """

    def __init__(self, engine: "Engine", runtime: EngineRuntime, job: MRJob,
                 owner: Optional[LeaseOwner]):
        self.sim = runtime.sim
        self.model = runtime.model
        self.cluster = runtime.cluster
        self.leases = runtime.leases
        self.hdfs = engine.hdfs
        self.job = job
        self.owner = owner
        inputs = load_job_inputs(job, engine.hdfs, vectorized=True)
        self.splits = inputs.splits
        self.small_tables = inputs.small_tables
        self.scale = inputs.scale
        self.total_bytes = inputs.total_bytes
        self.first_start_event = self.sim.event()  # value: first task's start

    def hold(self, pool: SlotPool, gang: Optional[GangLease] = None) -> SlotHold:
        return SlotHold(self.leases, pool, self.owner, gang)

    def started(self, task: TaskTiming) -> None:
        """Stamp a map-side task's start; the first one starts the job."""
        task.started = self.sim.now
        if not self.first_start_event.triggered:
            self.first_start_event.trigger(self.sim.now)

    def burn_doomed(self, node_index: int, tagged: TaggedSplit, doom: float,
                    read: Optional[float] = None, burn: Optional[float] = None,
                    gc_factor: float = 1.0):
        """Generator: an injected failure burns the *doom* fraction of a
        split's read (*read* bytes) and map CPU (*burn* bytes; both
        default to the split's scan) before the task dies."""
        node = self.cluster.workers[node_index]
        if burn is None:
            _batch, burn = scan_split_batch(tagged)
        if read is None:
            read = burn
        yield from charge_split_read(self.cluster, node, node_index, tagged,
                                     read * doom)
        yield from node.compute(
            burn * doom / MB * self.model.cpu.map_ms_per_mb * gc_factor / 1000.0
        )

    def reduce_tail(self, task: TaskTiming, partition: int, node_index: int,
                    nbytes: float, pairs: Segments, reducer,
                    spilled: float = 0.0, gc_factor: float = 1.0):
        """Generator: a reduce task once its *nbytes* of input *pairs*
        have arrived — merge-sort charge, read-back of *spilled* runs,
        the reduce itself through the engine module's *reducer* binding,
        the reduce charge and the commit point; returns :meth:`commit`'s
        verdict."""
        node = self.cluster.workers[node_index]
        cpu = self.model.cpu
        yield from node.compute(nbytes / MB * cpu.sort_ms_per_mb * gc_factor / 1000.0)
        yield from node.disk_read(spilled)
        output = reducer(self.job, pairs, self.small_tables, vectorized=True)
        yield from node.compute(
            nbytes / MB * cpu.reduce_ms_per_mb * gc_factor / 1000.0
        )
        return (yield from self.commit(task, partition, output, node_index))

    def commit(self, task: TaskTiming, index: int, rows, node_index: int):
        """Generator writing *task*'s output as part-file *index* from
        node *node_index*; returns False when the task lost its commit."""
        raise NotImplementedError


def collect_plan_result(
    engine: "Engine",
    runtime: EngineRuntime,
    plan: PhysicalPlan,
    timings: List[JobTiming],
    started_at: float,
    events_since: float,
) -> PlanResult:
    """Assemble a :class:`PlanResult` for a plan that ran in *runtime*
    from *started_at* until now, with the fault events delivered since
    *events_since* (its statement's start).  The injector's own span
    belongs to the runtime, not to any one plan."""
    return PlanResult(
        rows=final_sorted_rows(plan, engine.hdfs),
        schema=plan.output_schema,
        jobs=timings,
        total_seconds=runtime.sim.now - started_at,
        engine=engine.name,
        metrics=runtime.sampler.samples if runtime.sampler else [],
        spans=[timing.span for timing in timings if timing.span is not None],
        fault_events=[event for event in runtime.injector.events
                      if event.time >= events_since],
    )


class Engine:
    """Interface every engine implements.

    ``plan_process`` is what an engine implements: a coroutine executing
    one plan inside a caller-owned :class:`EngineRuntime`, so several
    plans (and engines) share one simulated cluster.  Engines always
    build job/task spans (cheap bookkeeping, no simulated cost).
    ``run_plan`` is the solo entry every engine inherits: one fresh
    runtime, run to completion.

    *model* (default: ``CostModel()``) is what solo runs build their
    :class:`EngineRuntime` from and what the driver charges compile
    time from.

    The class is the engine's whole declaration — what the registry
    (:func:`repro.engines.register`), the driver and the scheduler read:
    its registry :attr:`name` and :attr:`aliases`; :attr:`result_cache`,
    which opts it into the driver's result cache; and
    :attr:`degrades_to`, the registry name of the engine a plan goes to
    when this one fails (retries exhausted, or its circuit breaker
    open), ``None`` for nowhere.
    """

    name = "abstract"
    aliases: Tuple[str, ...] = ()
    result_cache = False
    degrades_to: Optional[str] = None

    def __init__(self, hdfs: HDFS, model: Optional[CostModel] = None):
        self.hdfs = hdfs
        self.model = model or CostModel()

    def cache_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-node cache statistics for persistent engines.

        Engines without node-local caches return an empty mapping; the
        llap engine overrides this with per-daemon columnar-cache
        counters (see ``Session.caches()``).
        """
        return {}

    def run_plan(
        self,
        plan: PhysicalPlan,
        conf: Optional[Configuration] = None,
        with_metrics: bool = False,
        process: Optional[Callable[[EngineRuntime], Generator]] = None,
    ):
        """Solo mode: a fresh :class:`EngineRuntime` (with a 1 Hz sampler
        if *with_metrics*) run to completion; returns what its driver
        process returns.  That is *process(runtime)* — ``Driver.execute``
        passes *plan*'s statement lifecycle, a ``QueryResult`` — or else
        *plan* bare, its :class:`PlanResult` (no compile charge, no
        driver epilogue: a hand-built plan, like Fig. 2's TeraSort)."""
        conf = conf or Configuration()
        runtime = EngineRuntime(self.model, conf, with_metrics=with_metrics)

        def bare(runtime):
            timings = yield from self.plan_process(runtime, plan, conf)
            return collect_plan_result(self, runtime, plan, timings, 0.0, 0.0)

        driver = runtime.sim.spawn((process or bare)(runtime), "hive-driver")
        try:
            runtime.sim.run()
        finally:
            runtime.close()
        return driver.value

    def plan_process(
        self,
        runtime: EngineRuntime,
        plan: PhysicalPlan,
        conf: Optional[Configuration] = None,
        owner: Optional[LeaseOwner] = None,
    ):
        """Generator executing *plan* in *runtime*; returns its job
        timings.  *owner* attributes every slot lease and job span to the
        submitting query."""
        raise NotImplementedError(
            f"engine {self.name!r} does not implement plan_process"
        )


def compare_result_rows(left: List[Row], right: List[Row], ordered: bool) -> bool:
    """Row-set equality check used by cross-engine integration tests."""
    if ordered:
        return _normalize_rows(left) == _normalize_rows(right)
    key = functools.cmp_to_key(key_comparator())
    return sorted(_normalize_rows(left), key=key) == sorted(
        _normalize_rows(right), key=key
    )


def _normalize_rows(rows: List[Row]) -> List[Row]:
    """Round floats so accumulation-order differences don't fail equality."""
    normalized = []
    for row in rows:
        normalized.append(
            tuple(
                round(value, 6) if isinstance(value, float) else value for value in row
            )
        )
    return normalized
