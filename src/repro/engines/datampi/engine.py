"""The DataMPI execution engine: Hive's plug-in over the MPI-D library
(paper §IV).  The library (:mod:`repro.datampi`) launches the process
gang, restarts it and moves the pairs; the plug-in turns a plan into
stages and hands the library each rank's work, charges and policy.

O tasks dispatch into CommonProcesses ``mpidrun`` already spawned (no
per-task JVM: §V-B), and the DataMPICollector fills Send Partition
Lists *while the O task computes*, so the intermediate data sits on the
A side when the last O task ends (§IV-B).  When ``repro.retry.max``
resubmissions are spent the driver re-runs the plan on the engine the
class ``degrades_to`` (§I, §VI).  Knobs: ``hive.datampi.memusedpercent``
splits the heap between DataMPI's buffers and the application (low →
A-side spill, high → GC pressure: Fig 8 left), ``hive.datampi.sendqueue``
bounds the send queue (Fig 8 right), ``hive.datampi.parallelism=enhanced``
sets #A = #O (§IV-D), ``hive.datampi.dag`` pipelines stages in memory.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, NamedTuple, Optional

from repro.common.config import (
    Configuration,
    DATAMPI_NONBLOCKING,
    DATAMPI_OVERLAP,
    HIVE_DATAMPI_DAG,
    HIVE_DATAMPI_MEM_USED_PERCENT,
    HIVE_DATAMPI_SEND_QUEUE,
    RETRY_BACKOFF,
    RETRY_MAX,
)
from repro.common.errors import RetryExhaustedError
from repro.common.rows import ColumnBatch
from repro.common.units import MB
from repro.datampi import ARank, MPIDJob, ORank, SendBuffer, SendPartitionList
from repro.engines.base import (
    Engine,
    EngineRuntime,
    JobRun,
    JobTiming,
    TaggedSplit,
    TaskTiming,
    assign_splits_locality,
    charge_split_read,
    child_span,
    close_job_span,
    close_task_span,
    decide_num_reducers,
    hdfs_write_pipeline,
    map_cpu_ms,
    open_job_span,
    open_task,
    record_job_metrics,
    run_map_compute,
    run_reducer_functionally,
    write_task_output,
)
from repro.exec.operators import Collector
from repro.obs import get_metrics
from repro.plan.physical import MRJob, PhysicalPlan
from repro.simulate import Interrupt, LeaseOwner, SlotPool

DEFAULT_RETRY_MAX = 2  # resubmissions after the first failed run
DEFAULT_RETRY_BACKOFF = 1.0  # seconds; doubles per resubmission
DEFAULT_MEM_USED_PERCENT = 0.4  # hive.datampi.memusedpercent
DEFAULT_SEND_QUEUE = 6  # hive.datampi.sendqueue


def _mem_used_percent(conf: Configuration) -> float:
    value = conf.get_float(HIVE_DATAMPI_MEM_USED_PERCENT, DEFAULT_MEM_USED_PERCENT)
    return min(0.98, max(0.02, value))


def _gc_factor(costs, mem_used_percent: float) -> float:
    """CPU inflation from Java GC when the application is squeezed
    (percent -> 1 leaves little heap for row processing: Fig 8)."""
    pressure = mem_used_percent * mem_used_percent / (1.0 - mem_used_percent + 0.05)
    return min(2.5, 1.0 + costs.gc_coefficient * pressure)


def _partition_buffer_bytes(costs, mem_used_percent: float) -> float:
    """SPL send-partition size: the library's buffer pool grows with
    its heap share; a starved pool means tiny partitions and many
    more, higher-overhead sends (the left edge of Fig 8)."""
    scaled = costs.partition_buffer_bytes * (mem_used_percent / DEFAULT_MEM_USED_PERCENT)
    return min(2.0 * 1024 * 1024, max(64.0 * 1024, scaled))


class DataMPICollector(Collector):
    """Replaces Hadoop's MapOutputCollector: pairs go straight into the
    Send Partition Lists; full partitions are handed to the shuffle
    engine between row batches (paper §IV-B: DataMPICollector.collect()
    uses MPI_D_send())."""

    def __init__(self, spl: SendPartitionList):
        self.spl = spl
        self.full_buffers: List[SendBuffer] = []

    def collect_batch(self, partition_ids, run) -> None:
        self.spl.add_many(partition_ids, run, self.full_buffers.append)

    def take_full(self) -> List[SendBuffer]:
        out = self.full_buffers
        self.full_buffers = []
        return out


class _Stage(NamedTuple):
    """One job of a plan, as every submission of it sees it."""

    runtime: EngineRuntime
    job: MRJob
    owner: Optional[LeaseOwner]
    timing: JobTiming
    conf: Configuration
    a_slots: List[SlotPool]
    is_last: bool
    pipe_out: bool  # DAG mode: the output stays in memory for the next stage


class _Submission(JobRun):
    """One ``mpidrun`` submission of a stage: the work its O and A ranks
    do, as the library's roles (:mod:`repro.datampi.mpidrun`)."""

    def __init__(self, engine: "DataMPIEngine", stage: _Stage, gang, pipe_in: bool):
        super().__init__(engine, stage.runtime, stage.job, stage.owner)
        self.stage = stage
        self.timing = stage.timing
        self.gang = gang
        self.pipe_in = pipe_in  # DAG mode: the input is the previous stage's output
        self.mem_used = _mem_used_percent(stage.conf)
        self.gc_factor = _gc_factor(self.model.datampi, self.mem_used)
        self.groups: List[tuple] = []
        self.num_reducers = 0

    def layout(self, remap):
        if not self.splits:
            self.gang.undo.append(partial(
                self.hdfs.delete,
                write_task_output(self.job, self.hdfs, 0, [], self.scale).path,
            ))
            return [], 0
        # DataMPI schedules at most one O task per slot (paper §IV-D:
        # "the number of O tasks is based on the number of input splits
        # and less than the maximum number of executing slots"); each O
        # task consumes several splits, so there are no task waves.
        spec = self.model.cluster
        self.groups = [
            (remap(node_index), group) for node_index, group in _group_splits(
                self.splits, len(self.cluster.workers), spec.slots_per_node)
        ]
        self.timing.num_maps = len(self.groups)
        self.num_reducers = self.timing.num_reducers = decide_num_reducers(
            self.job, len(self.groups), self.total_bytes, self.stage.conf,
            self.stage.is_last, spec.total_slots,
        )
        return [node_index for node_index, _group in self.groups], self.num_reducers

    def o_done(self, comm) -> None:
        timing = self.timing
        timing.shuffle_done = self.sim.now  # O phase over: data on the A side
        if not timing.first_task_started:
            started = self.first_start_event
            timing.first_task_started = started.value if started.triggered else self.sim.now
        if comm is not None:
            timing.shuffle_logical_bytes = comm.delivered_bytes

    def commit(self, task: TaskTiming, index: int, rows, node_index: int):
        """Write a part-file an abort deletes; a DAG stage skips the
        replicated write.  Without speculation no commit is lost."""
        data_file = write_task_output(self.job, self.hdfs, index, rows,
                                      self.scale, writer_node=node_index)
        self.gang.undo.append(partial(self.hdfs.delete, data_file.path))
        if not self.stage.pipe_out:
            yield from hdfs_write_pipeline(
                self.cluster, self.cluster.workers[node_index], data_file
            )
        return True

    def rank_failed(self, task: TaskTiming, doom: float) -> None:
        """An injected rank failure: there is no task-granular recovery
        in the MPI substrate, so the rank poisons the communicator."""
        self.timing.failed_attempts += 1
        get_metrics().counter("cluster.tasks.failed").add(1)
        if task.span is not None:
            task.span.add_event("injected-failure", self.sim.now,
                                doom=doom, node=task.node)
        task.finished = self.sim.now
        close_task_span(task)
        self.gang.trip(("task-failure", task.task_id))

    def rank_interrupted(self, task: TaskTiming, cause: object) -> None:
        """Another rank poisoned the communicator (or our node died):
        the task stops mid-flight."""
        if isinstance(cause, tuple) and cause and cause[0] == "node-crash":
            # our host died under us: MPI_Abort now, long before the
            # heartbeat monitor declares the node dead
            self.gang.trip(cause)
        if task.span is not None:
            task.span.add_event("aborted", self.sim.now, cause=str(cause))
        task.finished = self.sim.now
        close_task_span(task)

    # -- O task --------------------------------------------------------------
    def o_rank(self, rank: ORank):
        cpu = self.model.cpu
        sim = self.sim
        node_index = rank.node_index
        node = self.cluster.workers[node_index]
        task = open_task(self.timing, f"o{rank.index}", "o", node_index, sim.now)
        task.send_events = rank.send_events
        # a slot granted with the rest of the gang is checked out of its
        # lease; remap overflow beyond the node's slot capacity waves
        # through like any other single-slot request
        hold = self.hold(node.slots, rank.lease)
        group = self.groups[rank.index][1]
        outputs: List[ColumnBatch] = []  # one per split, map-only jobs
        try:
            yield from hold.take()
            yield from node.compute(self.model.datampi.task_setup)
            self.started(task)
            if rank.doom is not None:
                # burn a doom-fraction of the first split's work, then die
                # (a DAG stage's input is already in memory: no read)
                yield from self.burn_doomed(node_index, group[0], rank.doom,
                                            0.0 if self.pipe_in else None,
                                            gc_factor=self.gc_factor)
                self.rank_failed(task, rank.doom)
                return
            rank.start()
            for tagged in group:
                scale = tagged.split.scale
                # compute the whole split, then replay its batches so
                # charges and emissions land at their simulated points
                records, final_buffers, result = self._compute_split(tagged)
                for batch_bytes, (spl_bytes, full_buffers) in records:
                    if not self.pipe_in:  # DAG stage: input already in memory
                        yield from charge_split_read(
                            self.cluster, node, node_index, tagged, batch_bytes
                        )
                    cpu_ms = map_cpu_ms(cpu, tagged, batch_bytes) * self.gc_factor
                    yield from node.compute(cpu_ms / 1000.0)
                    task.collect_samples.append((sim.now, spl_bytes))
                    yield from rank.send(full_buffers, scale)
                yield from rank.send(final_buffers, scale)
                outputs.append(result.output)
                task.rows_read += result.rows_read
                task.kv_pairs += result.kv_pairs
                task.kv_bytes += result.kv_bytes * scale
            yield from rank.flush()  # no-overlap ablation: everything ships now
            if self.job.is_map_only:
                yield from self.commit(task, rank.index, ColumnBatch.concat(outputs),
                                       node_index)
        except Interrupt as interrupt:
            # stop mid-flight; resources unwind in the finally below
            self.rank_interrupted(task, interrupt.cause)
            return
        finally:
            rank.close()
            hold.give_back()
        yield from rank.join()
        task.finished = sim.now
        if task.send_events:
            # the O-side shuffle window: first send handed to the engine
            # until the last delivery this task awaited
            child_span(
                task, "shuffle", task.send_events[0],
                sends=len(task.send_events), node=node_index,
            ).finish(sim.now)
        close_task_span(task)

    def _compute_split(self, tagged: TaggedSplit):
        """One split's map chain into a fresh Send Partition List (in the
        split's actual bytes): per-batch records ``(batch bytes, (SPL
        bytes, buffers filled))``, the buffers left at close, the result."""
        cpu = self.model.cpu
        spl = SendPartitionList(
            max(1, self.num_reducers),
            _partition_buffer_bytes(self.model.datampi, self.mem_used)
            / max(tagged.split.scale, 1e-9),
        )
        collector = DataMPICollector(spl)
        _bytes_to_read, records, result = run_map_compute(
            tagged, collector, num_partitions=self.num_reducers,
            small_tables=self.small_tables, map_only=self.job.is_map_only,
            batching=(cpu.batch_target_mb, cpu.min_batch_rows),
            record=lambda: (spl.bytes_added, collector.take_full()),
        )
        return records, collector.take_full() + spl.drain(), result

    # -- A task --------------------------------------------------------------
    def a_rank(self, rank: ARank):
        sim = self.sim
        node_index = rank.node_index
        node = self.cluster.workers[node_index]
        task = open_task(self.timing, f"a{rank.partition}", "a", node_index, sim.now)
        hold = self.hold(self.stage.a_slots[node_index])
        try:
            yield from hold.take()
            yield from node.compute(self.model.datampi.task_setup)
            task.started = sim.now
            if rank.doom is not None:
                # rank failure mid-merge: the whole job dies with it
                yield from node.compute(
                    rank.received / MB * self.model.cpu.sort_ms_per_mb * self.gc_factor
                    * rank.doom / 1000.0
                )
                self.rank_failed(task, rank.doom)
                return
            pairs = yield from rank.pairs(task.span)  # spilled runs read back
            yield from self.reduce_tail(
                task, rank.partition, node_index, rank.received, pairs,
                run_reducer_functionally, gc_factor=self.gc_factor,
            )
            rank.release()
            task.kv_bytes = rank.received
        except Interrupt as interrupt:
            self.rank_interrupted(task, interrupt.cause)
            return
        finally:
            hold.give_back()
        task.finished = sim.now
        close_task_span(task)


class DataMPIEngine(Engine):
    name = "datampi"
    aliases = ("dm",)
    degrades_to = "hadoop"

    def plan_process(
        self,
        runtime: EngineRuntime,
        plan: PhysicalPlan,
        conf: Optional[Configuration] = None,
        owner: Optional[LeaseOwner] = None,
    ):
        """Execute *plan* inside a (possibly shared) runtime: the A-slot
        pools are the runtime's (queries contend)."""
        conf = conf or Configuration()
        a_slots = runtime.aux_slots(
            "datampi.a", runtime.model.cluster.slots_per_node, "aslots"
        )

        # DAG mode (paper §VII future work 3): consecutive stages whose only
        # dependency is the previous stage's temp directory are pipelined —
        # no HDFS materialization, no re-spawned processes
        dag = conf.get_bool(HIVE_DATAMPI_DAG, False)
        pipelined_in = {
            index for index, (previous, job) in enumerate(zip(plan.jobs, plan.jobs[1:]), 1)
            if dag and len(job.inputs) == 1 and not previous.is_final
            and job.inputs[0].location == previous.output_location
        }

        timings: List[JobTiming] = []
        for index, job in enumerate(plan.jobs):
            timing = JobTiming(job_id=job.job_id, submitted=runtime.sim.now,
                               num_maps=0, num_reducers=0)
            stage = _Stage(runtime, job, owner, timing, conf, a_slots,
                           is_last=index == len(plan.jobs) - 1,
                           pipe_out=(index + 1) in pipelined_in)
            yield from self._run_job(stage, index in pipelined_in)
            timings.append(timing)
        return timings

    def _run_job(self, stage: _Stage, pipe_in: bool):
        """Submit the job through ``mpidrun`` until a submission completes."""
        runtime, job, conf, timing = stage.runtime, stage.job, stage.conf, stage.timing
        sim = runtime.sim
        timing.span = open_job_span(runtime.tracer, self.name, job, sim.now, stage.owner)
        mpid = MPIDJob(
            runtime.cluster, runtime.injector, runtime.leases,
            runtime.model.datampi, job.job_id, owner=stage.owner,
            retry_max=max(0, conf.get_int(RETRY_MAX, DEFAULT_RETRY_MAX)),
            backoff=max(0.0, conf.get_float(RETRY_BACKOFF, DEFAULT_RETRY_BACKOFF)),
            nonblocking=conf.get_bool(DATAMPI_NONBLOCKING, True),
            overlap=conf.get_bool(DATAMPI_OVERLAP, True),
            queue_capacity=conf.get_int(HIVE_DATAMPI_SEND_QUEUE, DEFAULT_SEND_QUEUE),
            cache_fraction=_mem_used_percent(conf),
        )

        def submit(gang, submission: int) -> _Submission:
            return _Submission(self, stage, gang, pipe_in and submission == 1)

        try:
            timing.restarts = yield from mpid.run(submit, respawn=not pipe_in,
                                                  span=timing.span)
        except RetryExhaustedError as exhausted:
            timing.restarts = exhausted.attempts  # every submission aborted
            timing.finished = sim.now
            close_job_span(timing)
            raise
        timing.finished = sim.now
        close_job_span(timing)
        record_job_metrics(self.name, timing, runtime.model.cluster.total_slots)


def _group_splits(
    splits: List[TaggedSplit], num_workers: int, slots_per_node: int
) -> List[tuple]:
    """Pack splits into at most ``num_workers * slots_per_node`` O tasks:
    each to a replica node, then round-robin over that node's slots.
    Returns [(node_index, [splits])]."""
    placement = assign_splits_locality(splits, num_workers)
    per_node: Dict[int, List[TaggedSplit]] = {}
    for tagged, node_index in zip(splits, placement):
        per_node.setdefault(node_index, []).append(tagged)
    groups: List[tuple] = []
    for node_index in sorted(per_node):
        node_splits = per_node[node_index]
        num_tasks = min(slots_per_node, len(node_splits))
        groups.extend((node_index, node_splits[task::num_tasks])
                      for task in range(num_tasks))
    return groups
