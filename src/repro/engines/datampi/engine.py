"""The DataMPI execution engine (paper §IV).

Differences from the Hadoop engine, each mapped to a paper claim:

* **Light-weight startup** — one ``mpidrun`` spawn brings up
  CommonProcesses on every node; scheduled O/A tasks dispatch into the
  *existing* processes (no per-task JVM), so startup is ~30 % shorter
  and multi-wave jobs avoid per-wave process costs (§V-B).
* **Overlapped, partition-based shuffle** — the DataMPICollector fills
  Send Partition List buffers *while the O task computes*; full buffers
  flow through a bounded send queue to the shuffle engine, which
  transmits them with non-blocking ``MPI_Isend`` and caches the request
  handles (Fig 7).  By the time all O tasks finish, the intermediate
  data already sits in A-side memory (§IV-B "overlapped computation and
  communication").
* **Blocking vs non-blocking styles** — the blocking style synchronizes
  every participant per communication round (``MPI_Waitall``); skewed
  tasks then stall the whole communicator (Fig 6).
* **Gang fault semantics** — the MPI substrate has no per-task retry: a
  rank failure (injected task fault or node crash) poisons the whole
  communicator, every surviving rank is interrupted mid-flight and the
  attempt's partial output is discarded.  ``mpidrun`` resubmits the job
  under exponential backoff (``repro.retry.max`` / ``repro.retry.backoff``);
  when resubmissions run out a :class:`RetryExhaustedError` surfaces and
  the driver re-runs the plan on the MapReduce engine, which the class
  declares as its ``degrades_to`` (§I, §VI — the fault-tolerance
  trade-off the paper concedes to Hadoop).
* **Tuning knobs** — ``hive.datampi.memusedpercent`` splits the heap
  between DataMPI's buffers and the application (low → A-side spill,
  high → GC pressure: Fig 8 left); ``hive.datampi.sendqueue`` bounds the
  send queue (small → computation blocks on communication: Fig 8
  right); ``hive.datampi.parallelism=enhanced`` sets #A = #O (§IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Iterator, List, Optional, Set

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
from repro.common.errors import JobAbortedError, RetryExhaustedError
from repro.common.rows import ColumnBatch
from repro.common.units import MB
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
    hdfs_write_pipeline,
    decide_num_reducers,
    map_cpu_ms,
    open_job_span,
    open_task,
    record_job_metrics,
    run_map_compute,
    run_reducer_functionally,
    write_task_output,
)
from repro.engines.datampi.buffers import (
    ReceiveManager,
    SendBuffer,
    SendPartitionList,
    SendQueue,
)
from repro.engines.datampi.mpi import DynamicBarrier, SimulatedMPI
from repro.exec.operators import Collector
from repro.obs import get_metrics
from repro.plan.physical import MRJob, PhysicalPlan
from repro.simulate import (
    Event,
    FaultInjector,
    GangLease,
    Interrupt,
    LeaseOwner,
    Simulator,
    SlotPool,
)


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


class _Gang:
    """One mpidrun submission's communicator: every task process in the
    job, the HDFS paths it has written, and the poison flag.

    The first interrupted/doomed rank ``trip``\\ s the gang: all other
    ranks get interrupted at the same instant (MPI_Abort semantics) and
    the attempt's outputs are deleted by the retry loop.  A node crash
    anywhere in the cluster trips the gang too — the MPI world spans all
    workers, so losing any host kills the communicator.
    """

    def __init__(self, sim: Simulator, injector: FaultInjector):
        self.sim = sim
        self.injector = injector
        self.tripped = False
        self.cause: object = None
        self.procs: List = []
        self._sweep_at = 64
        self._watched: Optional[Event] = None
        self.written: List[str] = []
        #: worker indices in the current submission's hostfile — set by
        #: ``_attempt_job`` once the communicator's membership is fixed
        self.attempt_indices: Set[int] = set()
        injector.subscribe_crash(self._on_crash)

    def _on_crash(self, worker_index: int) -> None:
        # With a heartbeat monitor running this fires at the *declared*
        # death, seconds after the physical crash — by then a resubmission
        # may already have excluded the node from its hostfile, and a
        # declaration must not poison a communicator the node never
        # joined.  Ranks on the dead node are interrupted physically at
        # the crash instant and trip the gang themselves.
        if self.attempt_indices and worker_index not in self.attempt_indices:
            return
        self.trip(("node-crash", worker_index))

    def add(self, proc) -> None:
        if self.tripped:
            if proc.alive:
                proc.interrupt(("gang-abort", self.cause))
            return
        if len(self.procs) >= self._sweep_at:
            # finished ranks have nothing left to interrupt; survivors
            # keep their launch order, which is the order a trip uses
            self.procs = [rank for rank in self.procs if rank.alive]
            self._sweep_at = 2 * len(self.procs) + 64
        self.procs.append(proc)

    def watch(self, event: Event) -> None:
        """Trigger *event* if the gang trips before it fires by itself:
        whoever waits on it wakes at the abort instant."""
        self._watched = event

    def trip(self, cause: object) -> None:
        if self.tripped:
            return
        self.tripped = True
        self.cause = cause
        for proc in self.procs:
            if proc.alive:
                proc.interrupt(("gang-abort", cause))
        if self._watched is not None and not self._watched.triggered:
            self._watched.trigger(None)

    def close(self) -> None:
        self.injector.unsubscribe_crash(self._on_crash)


@dataclass
class _Stage:
    """One job of a plan, as every submission of it sees it."""

    runtime: EngineRuntime
    mpi: SimulatedMPI
    a_slots: List[SlotPool]
    job: MRJob
    conf: Configuration
    owner: Optional[LeaseOwner]
    is_last: bool
    pipe_in: bool  # DAG mode: input is the previous stage's in-memory output
    pipe_out: bool  # DAG mode: output stays in memory for the next stage
    timing: Optional[JobTiming] = None


class _Submission(JobRun):
    """One ``mpidrun`` submission: everything its O and A tasks share."""

    def __init__(self, engine: "DataMPIEngine", stage: _Stage, gang: _Gang,
                 pipe_in: bool):
        super().__init__(engine, stage.runtime, stage.job, stage.owner)
        conf = stage.conf
        self.mpi = stage.mpi
        self.a_slots = stage.a_slots
        self.timing = stage.timing
        self.gang = gang
        self.pipe_in = pipe_in
        self.pipe_out = stage.pipe_out
        self.mem_used = _mem_used_percent(conf)
        self.gc_factor = _gc_factor(self.model.datampi, self.mem_used)
        self.queue_capacity = conf.get_int(HIVE_DATAMPI_SEND_QUEUE, DEFAULT_SEND_QUEUE)
        self.nonblocking = conf.get_bool(DATAMPI_NONBLOCKING, True)
        self.overlap = conf.get_bool(DATAMPI_OVERLAP, True)
        self.barrier = DynamicBarrier(self.sim)
        self.occupancy = get_metrics().histogram("datampi.sendqueue.occupancy")
        # MPI_Isends whose buffer has not landed on the A side yet, and
        # the event ``_attempt_job`` waits on while that is non-zero
        self.outstanding = 0
        self.drained: Optional[Event] = None
        # fixed once the communicator's membership is known
        self.num_reducers = 0
        self.receive: Optional[ReceiveManager] = None

    def commit(self, task: TaskTiming, index: int, rows, node_index: int):
        """Write a task's part-file.  It is recorded on the gang, whose
        abort deletes it; a DAG stage skips the replicated write (the
        next stage's O tasks consume the rows in memory).  Without
        speculation a task cannot lose its commit."""
        data_file = write_task_output(self.job, self.hdfs, index, rows,
                                      self.scale, writer_node=node_index)
        self.gang.written.append(data_file.path)
        if not self.pipe_out:
            yield from hdfs_write_pipeline(
                self.cluster, self.cluster.workers[node_index], data_file
            )
        return True

    def landed(self, queue: SendQueue) -> None:
        """One send's buffer is accounted on the A side: free its send
        queue slot and, if it was the last one out, end the drain."""
        queue.transfer_finished()
        self.outstanding -= 1
        if not self.outstanding and self.drained is not None:
            self.drained.trigger(None)

    def check_abort(self) -> None:
        if self.gang.tripped:
            raise JobAbortedError(
                f"gang abort: {self.gang.cause}", job_id=self.job.job_id,
                cause=self.gang.cause,
            )

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


class DataMPIEngine(Engine):
    name = "datampi"
    aliases = ("dm",)
    degrades_to = "hadoop"

    # -- public API ---------------------------------------------------------
    def plan_process(
        self,
        runtime: EngineRuntime,
        plan: PhysicalPlan,
        conf: Optional[Configuration] = None,
        owner: Optional[LeaseOwner] = None,
    ):
        """Execute *plan* inside a (possibly shared) runtime.  The MPI
        substrate is per-plan (it only counts messages); the A-task slot
        pools are runtime-shared so concurrent queries contend for them."""
        conf = conf or Configuration()
        mpi = SimulatedMPI(runtime.cluster)
        a_slots = runtime.aux_slots(
            "datampi.a", runtime.model.cluster.slots_per_node, "aslots"
        )

        # DAG mode (paper §VII future work 3): consecutive stages whose only
        # dependency is the previous stage's temp directory are pipelined —
        # no HDFS materialization, no re-spawned processes
        dag = conf.get_bool(HIVE_DATAMPI_DAG, False)
        pipelined_in = set()
        if dag:
            for index in range(1, len(plan.jobs)):
                job = plan.jobs[index]
                previous = plan.jobs[index - 1]
                if (
                    len(job.inputs) == 1
                    and job.inputs[0].location == previous.output_location
                    and not previous.is_final
                ):
                    pipelined_in.add(index)

        timings: List[JobTiming] = []
        for index, job in enumerate(plan.jobs):
            stage = _Stage(
                runtime, mpi, a_slots, job, conf, owner,
                is_last=index == len(plan.jobs) - 1,
                pipe_in=index in pipelined_in,
                pipe_out=(index + 1) in pipelined_in,
            )
            timings.append((yield from self._run_job(stage)))
        return timings

    # -- job retry loop ----------------------------------------------------------
    def _run_job(self, stage: _Stage):
        """Submit the job; on a gang abort discard the attempt's output
        and resubmit under exponential backoff until ``repro.retry.max``
        resubmissions are spent."""
        sim = stage.runtime.sim
        job = stage.job
        conf = stage.conf
        retry_max = max(0, conf.get_int(RETRY_MAX, DEFAULT_RETRY_MAX))
        backoff = max(0.0, conf.get_float(RETRY_BACKOFF, DEFAULT_RETRY_BACKOFF))
        timing = stage.timing = JobTiming(
            job_id=job.job_id,
            submitted=sim.now,
            num_maps=0,
            num_reducers=0,
        )
        timing.span = open_job_span(
            stage.runtime.tracer, self.name, job, sim.now, stage.owner
        )
        submission = 0
        while True:
            submission += 1
            gang = _Gang(sim, stage.runtime.injector)
            try:
                yield from self._attempt_job(stage, gang, submission, retry_max)
                break
            except JobAbortedError as abort:
                timing.restarts += 1
                get_metrics().counter("engine.job.restarts").add(1)
                get_metrics().counter("datampi.job.restarts").add(1)
                if timing.span is not None:
                    timing.span.add_event("gang-abort", sim.now,
                                          cause=str(abort.cause),
                                          submission=submission)
                # MPI_Abort discards everything: even committed part-files
                # of this attempt are deleted before the re-run
                for path in gang.written:
                    self.hdfs.delete(path)
                if submission > retry_max:
                    timing.finished = sim.now
                    close_job_span(timing)
                    raise RetryExhaustedError(
                        f"job {job.job_id} aborted on all {submission} "
                        f"submission(s); last cause: {abort.cause}",
                        job_id=job.job_id,
                        attempts=submission,
                    )
                delay = backoff * (2 ** (submission - 1))
                if timing.span is not None:
                    timing.span.add_event("backoff", sim.now, seconds=delay)
                if delay > 0:
                    yield sim.timeout(delay)
            finally:
                gang.close()
        timing.finished = sim.now
        close_job_span(timing)
        record_job_metrics(self.name, timing, stage.runtime.model.cluster.total_slots)
        return timing

    # -- one submission ----------------------------------------------------------
    def _attempt_job(self, stage: _Stage, gang: _Gang, submission: int,
                     retry_max: int):
        sub = _Submission(self, stage, gang,
                          pipe_in=stage.pipe_in and submission == 1)
        costs = sub.model.datampi
        spec = sub.model.cluster
        sim = sub.sim
        job = sub.job
        timing = sub.timing
        injector = stage.runtime.injector
        leases = sub.leases
        # the final permitted submission runs with injected task faults
        # disabled, so only repeated node crashes can exhaust the retries
        doom_ok = submission <= retry_max

        # mpidrun spawns the CommonProcesses (once per submission); their
        # heaps appear on every node at once — this is why the paper's Fig
        # 13(c) shows DataMPI reaching its memory ceiling sooner than
        # Hadoop.  A pipelined DAG stage reuses the previous stage's live
        # processes (but a resubmission always respawns them).
        if not sub.pipe_in:
            yield sim.timeout(costs.mpidrun_spawn)
            yield sim.timeout(costs.process_launch)
        # O and A communicators each get slots_per_node processes (the
        # testbed's 4 + 4), all resident from spawn time; dead hosts are
        # left out of the new communicator's hostfile.  Membership may
        # have changed while mpidrun was spawning, so re-snapshot the
        # worker list before building it.
        workers = sub.cluster.workers
        live_indices = (
            injector.schedulable_worker_indices()  # skip draining hosts
            or injector.live_worker_indices()
            or list(range(len(workers)))
        )
        attempt_set = set(live_indices)
        gang.attempt_indices = attempt_set
        attempt_workers = [workers[i] for i in live_indices]
        process_heap = 2 * spec.heap_per_task * spec.slots_per_node
        for worker in attempt_workers:
            worker.memory.allocate(process_heap)

        def remap(node_index: int) -> int:
            if node_index in attempt_set:
                return node_index
            return live_indices[node_index % len(live_indices)]

        try:
            if not sub.splits:
                data_file = write_task_output(job, self.hdfs, 0, [], sub.scale)
                gang.written.append(data_file.path)
                if not timing.first_task_started:
                    timing.first_task_started = sim.now
                timing.shuffle_done = sim.now
                yield sim.timeout(costs.job_cleanup)
                sub.check_abort()
                return

            # DataMPI schedules at most one O task per slot (paper §IV-D:
            # "the number of O tasks is based on the number of input splits
            # and less than the maximum number of executing slots"); each O
            # task consumes several splits, so there are no task waves.
            groups = _group_splits(sub.splits, len(workers),
                                   spec.slots_per_node)
            groups = [(remap(node_index), group) for node_index, group in groups]
            num_o = len(groups)
            timing.num_maps = num_o
            num_reducers = sub.num_reducers = decide_num_reducers(
                job, num_o, sub.total_bytes, stage.conf, stage.is_last,
                spec.total_slots,
            )
            timing.num_reducers = num_reducers
            partition_nodes = [
                workers[remap(p % len(workers))] for p in range(num_reducers)
            ]
            # the A-side processes' share of the heap caches received
            # partitions; beyond it, buffers spill to local disk (Fig 8 left)
            cache_budget = (
                sub.mem_used * spec.heap_per_task * spec.slots_per_node
            )
            receive = sub.receive = ReceiveManager(
                sim, partition_nodes, cache_budget
            )

            # DataMPI's scheduler is gang-granular: the job's whole O-slot
            # set is leased atomically (all-or-nothing — a waiting gang
            # holds nothing, so it can never wedge another query).  After
            # a remap folds a dead node's groups onto survivors a node may
            # carry more O tasks than slots; the gang claims only up to
            # each pool's capacity and the overflow tasks wave through
            # individual leases like any other request.
            gang_counts: Dict[int, int] = {}
            for node_index, _group in groups:
                gang_counts[node_index] = gang_counts.get(node_index, 0) + 1
            gang_budget = {
                node_index: min(count, workers[node_index].slots.capacity)
                for node_index, count in gang_counts.items()
            }
            gang_grant = leases.acquire_gang(
                [
                    (workers[node_index].slots, gang_budget[node_index])
                    for node_index in sorted(gang_budget)
                ],
                sub.owner,
            )
            ranks: List = []  # (worker_index, process) registered as MPI ranks

            def launch(coroutine, name: str, node_index: int):
                """Spawn one rank of the communicator."""
                proc = sim.spawn(coroutine, name)
                gang.add(proc)
                if injector.active:
                    # physical failure semantics: a node crash interrupts
                    # the resident rank at the crash instant; the rank
                    # itself trips the gang
                    injector.register(node_index, proc)
                    ranks.append((node_index, proc))
                return proc

            def draw_doom(task_id: str) -> Optional[float]:
                if not doom_ok:
                    return None
                return injector.attempt_doom(job.job_id, task_id, submission)

            try:
                yield gang_grant
                gang_lease: GangLease = gang_grant.value
                sub.check_abort()  # the gang may have tripped while we waited
                o_processes = []
                gang_spawned: Dict[int, int] = {}
                for index, (node_index, group) in enumerate(groups):
                    if not sub.nonblocking:
                        sub.barrier.register()
                    doom = draw_doom(f"o{index}")
                    reserved = gang_spawned.get(node_index, 0)
                    task_gang = (
                        gang_lease if reserved < gang_budget[node_index] else None
                    )
                    gang_spawned[node_index] = reserved + 1
                    o_processes.append(launch(
                        self._o_task(sub, index, group, node_index, doom,
                                     task_gang),
                        f"{job.job_id}-s{submission}-o{index}", node_index,
                    ))

                yield sim.all_of(o_processes)
                if sub.outstanding and not gang.tripped:
                    # the drain window: every O task is done, the last
                    # buffers are still on the wire
                    sub.drained = sim.event()
                    gang.watch(sub.drained)
                    yield sub.drained
                sub.check_abort()
                timing.shuffle_done = sim.now  # O phase over: data on the A side
                if not timing.first_task_started:
                    timing.first_task_started = (
                        sub.first_start_event.value
                        if sub.first_start_event.triggered else sim.now
                    )
                timing.shuffle_logical_bytes = sum(receive.received_bytes)

                if not job.is_map_only:
                    a_processes = []
                    for partition in range(num_reducers):
                        doom = draw_doom(f"a{partition}")
                        a_node = partition_nodes[partition].node_id - 1
                        a_processes.append(launch(
                            self._a_task(sub, partition, a_node, doom),
                            f"{job.job_id}-s{submission}-a{partition}", a_node,
                        ))
                    yield sim.all_of(a_processes)
                    sub.check_abort()

                yield sim.timeout(costs.job_cleanup)
                sub.check_abort()
            finally:
                for worker_index, proc in ranks:
                    injector.unregister(worker_index, proc)
                if gang_grant.triggered:
                    # O tasks interrupted before their first step never ran
                    # their ``finally`` — their reserved slots are still
                    # checked in here and must go back exactly once
                    gang_grant.value.release_unclaimed()
                else:
                    # interrupted (deadline) while the gang was still
                    # queued: withdraw the request so it cannot be granted
                    # to a dead waiter and wedge the pool
                    leases.cancel_gang(gang_grant, sub.owner)
        finally:
            for worker in attempt_workers:
                worker.memory.free(process_heap)

    # -- O task ----------------------------------------------------------------------
    def _o_task(self, sub: _Submission, index: int, group: List[TaggedSplit],
                node_index: int, doom: Optional[float],
                gang_lease: Optional[GangLease]):
        cpu = sub.model.cpu
        sim = sub.sim
        job = sub.job
        gc_factor = sub.gc_factor
        node = sub.cluster.workers[node_index]
        task = open_task(sub.timing, f"o{index}", "o", node_index, sim.now)
        # a slot granted with the rest of the gang is checked out of its
        # lease; remap overflow beyond the node's slot capacity waves
        # through like any other single-slot request
        hold = sub.hold(node.slots, gang_lease)
        queue = SendQueue(sim, sub.queue_capacity)
        sender_done = None
        sender_started = False
        emit_seq = count()  # provenance stamp for canonical receive order
        outputs: List[ColumnBatch] = []  # one per split, map-only jobs
        try:
            yield from hold.take()
            yield from node.compute(sub.model.datampi.task_setup)
            sub.started(task)
            if doom is not None:
                # burn a doom-fraction of the first split's work, then die
                # (a DAG stage's input is already in memory: no read)
                yield from sub.burn_doomed(node_index, group[0], doom,
                                           0.0 if sub.pipe_in else None,
                                           gc_factor=gc_factor)
                sub.rank_failed(task, doom)
                return

            held: List[SendBuffer] = []  # overlap disabled: defer all sends
            for tagged in group:
                scale = tagged.split.scale
                if sub.nonblocking and not job.is_map_only and not sender_started:
                    sender_done = sim.spawn(
                        self._sender_thread(sub, node, queue),
                        f"{job.job_id}-o{index}-send",
                    )
                    sub.gang.add(sender_done)
                    sender_started = True

                # compute the whole split, then replay its batches so
                # charges and emissions land at their simulated points
                records, final_buffers, result = self._compute_split(sub, tagged)

                for batch_bytes, (spl_bytes, full_buffers) in records:
                    if not sub.pipe_in:  # DAG stage: input already in memory
                        yield from charge_split_read(
                            sub.cluster, node, node_index, tagged, batch_bytes
                        )
                    cpu_ms = map_cpu_ms(cpu, tagged, batch_bytes)
                    yield from node.compute(cpu_ms * gc_factor / 1000.0)
                    task.collect_samples.append((sim.now, spl_bytes))
                    fresh = _stamp(full_buffers, scale, index, emit_seq)
                    if sub.overlap:
                        yield from self._emit_buffers(sub, node, fresh, queue, task)
                    else:
                        held.extend(fresh)

                fresh = _stamp(final_buffers, scale, index, emit_seq)
                if sub.overlap:
                    yield from self._emit_buffers(sub, node, fresh, queue, task)
                else:
                    held.extend(fresh)
                outputs.append(result.output)
                task.rows_read += result.rows_read
                task.kv_pairs += result.kv_pairs
                task.kv_bytes += result.kv_bytes * scale

            if held:
                # no-overlap ablation: everything ships after computation
                yield from self._emit_buffers(sub, node, held, queue, task)

            if job.is_map_only:
                yield from sub.commit(task, index, ColumnBatch.concat(outputs),
                                      node_index)
        except Interrupt as interrupt:
            # stop mid-flight; resources unwind in the finally below
            sub.rank_interrupted(task, interrupt.cause)
            return
        finally:
            if not sub.nonblocking:
                sub.barrier.deregister()
            if sender_started:
                queue.put(_SENTINEL)  # stop the sender thread
            hold.give_back()
        if sender_done is not None:
            yield sender_done
        task.finished = sim.now
        if task.send_events:
            # the O-side shuffle window: first send handed to the engine
            # until the last delivery this task awaited
            child_span(
                task, "shuffle", task.send_events[0],
                sends=len(task.send_events), node=node_index,
            ).finish(sim.now)
        close_task_span(task)

    def _compute_split(self, sub: _Submission, tagged: TaggedSplit):
        """Run one split's map chain into a fresh Send Partition List
        (capacity in the split's *actual* bytes).  Returns the per-batch
        records — ``(batch bytes, (cumulative SPL bytes, send buffers the
        batch filled))`` — the buffers left over at close, and the map
        result."""
        cpu = sub.model.cpu
        spl = SendPartitionList(
            max(1, sub.num_reducers),
            _partition_buffer_bytes(sub.model.datampi, sub.mem_used)
            / max(tagged.split.scale, 1e-9),
        )
        collector = DataMPICollector(spl)
        _bytes_to_read, records, result = run_map_compute(
            tagged, collector, num_partitions=sub.num_reducers,
            small_tables=sub.small_tables, map_only=sub.job.is_map_only,
            batching=(cpu.batch_target_mb, cpu.min_batch_rows),
            record=lambda: (spl.bytes_added, collector.take_full()),
        )
        return records, collector.take_full() + spl.drain(), result

    def _emit_buffers(self, sub: _Submission, node, buffers: List[SendBuffer],
                      queue: SendQueue, task: TaskTiming):
        """Route filled (already scale-stamped) send partitions to the
        shuffle engine."""
        if not buffers:
            return
        sim = sub.sim
        receive = sub.receive
        if sub.nonblocking:
            occupancy = sub.occupancy
            for buffer in buffers:
                admitted = queue.put(buffer)
                if not admitted.triggered:
                    yield admitted  # the send queue is full: computation blocks
                task.send_events.append(sim.now)
                occupancy.observe(queue.backlog)
        else:
            # blocking style: synchronized relaxed all-to-all rounds — every
            # participant must reach the round, then every send of the round
            # must complete (MPI_Waitall) before anyone proceeds
            chunk = max(1, sub.model.datampi.blocking_round_buffers)
            for start in range(0, len(buffers), chunk):
                round_buffers = buffers[start : start + chunk]
                yield sub.barrier.arrive()
                requests = []
                for buffer in round_buffers:
                    task.send_events.append(sim.now)
                    destination = receive.node_for(buffer.partition)
                    requests.append(
                        sub.mpi.isend(node, destination, buffer.logical_bytes)
                    )
                yield sub.mpi.waitall(requests)
                for buffer in round_buffers:
                    yield from receive.deliver(buffer.partition, buffer)
                yield sub.barrier.arrive()  # completion round

    def _sender_thread(self, sub: _Submission, node, queue: SendQueue):
        """Non-blocking shuffle engine: drains the send queue and issues
        one MPI_Isend per buffer.  It never waits on a request: each
        completion is a callback that accounts the buffer on the A side
        (one engine testing its cached requests, Fig 7 — not a thread
        per request)."""
        sim = sub.sim
        mpi = sub.mpi
        receive = sub.receive
        setup = sub.model.datampi.send_setup_seconds
        while True:
            taken = queue.get()
            buffer = taken.value if taken.triggered else (yield taken)
            if buffer is _SENTINEL:
                return
            queue.transfer_started()
            yield sim.timeout(setup)  # request setup
            destination = receive.node_for(buffer.partition)
            request = mpi.isend(node, destination, buffer.logical_bytes)
            sub.outstanding += 1
            request.event.add_callback(self._delivered, sub, queue, buffer)

    def _delivered(self, _value, sub: _Submission, queue: SendQueue,
                   buffer: SendBuffer) -> None:
        """A send's bytes have crossed both NICs."""
        if sub.gang.tripped:
            return  # MPI_Abort: nothing lands in a dead communicator
        overflow = sub.receive.accept(buffer.partition, buffer)
        if overflow:
            # A-side spill: the buffer has not landed until its overflow
            # is on disk, and that takes simulated time
            sub.gang.add(sub.sim.spawn(
                self._spill(sub, queue, buffer.partition, overflow),
                f"o{buffer.sender}-spill",
            ))
        else:
            sub.landed(queue)

    @staticmethod
    def _spill(sub: _Submission, queue: SendQueue, partition: int,
               overflow: float):
        yield from sub.receive.node_for(partition).disk_write(overflow)
        sub.landed(queue)

    # -- A task ---------------------------------------------------------------------
    def _a_task(self, sub: _Submission, partition: int, node_index: int,
                doom: Optional[float]):
        sim = sub.sim
        receive = sub.receive
        gc_factor = sub.gc_factor
        node = sub.cluster.workers[node_index]
        task = open_task(sub.timing, f"a{partition}", "a", node_index, sim.now)
        hold = sub.hold(sub.a_slots[node_index])
        try:
            yield from hold.take()
            yield from node.compute(sub.model.datampi.task_setup)
            task.started = sim.now

            received = receive.received_bytes[partition]
            if doom is not None:
                # rank failure mid-merge: the whole job dies with it
                yield from node.compute(
                    received / MB * sub.model.cpu.sort_ms_per_mb * gc_factor
                    * doom / 1000.0
                )
                sub.rank_failed(task, doom)
                return

            spilled = receive.spilled_bytes[partition]
            if spilled > 0:
                spill_span = child_span(task, "spill", sim.now,
                                        bytes=spilled, node=node_index)
                get_metrics().counter("datampi.spill.bytes").add(spilled)
                yield from node.disk_read(spilled)  # read back spilled runs
                spill_span.finish(sim.now)
            yield from sub.reduce_tail(
                task, partition, node_index, received,
                receive.partition_pairs(partition), run_reducer_functionally,
                gc_factor=gc_factor,
            )
            receive.release_partition(partition)
            task.kv_bytes = received
        except Interrupt as interrupt:
            sub.rank_interrupted(task, interrupt.cause)
            return
        finally:
            hold.give_back()
        task.finished = sim.now
        close_task_span(task)


_SENTINEL = SendBuffer(partition=-1)


def _stamp(buffers: List[SendBuffer], scale: float, sender: int,
           emit_seq: Iterator[int]) -> List[SendBuffer]:
    """Stamp provenance onto freshly filled buffers: the producing
    split's byte-scale plus the emitting O task and its emission
    sequence (the receive side orders pairs by the latter two)."""
    for buffer in buffers:
        buffer.scale = scale
        buffer.sender = sender
        buffer.seq = next(emit_seq)
    return buffers


def _group_splits(
    splits: List[TaggedSplit], num_workers: int, slots_per_node: int
) -> List[tuple]:
    """Pack splits into at most ``num_workers * slots_per_node`` O tasks.

    Locality-aware: splits go to a replica node first, then are divided
    among that node's slots round-robin.  Returns [(node_index, [splits])].
    """
    placement = assign_splits_locality(splits, num_workers)
    per_node: Dict[int, List[TaggedSplit]] = {}
    for tagged, node_index in zip(splits, placement):
        per_node.setdefault(node_index, []).append(tagged)
    groups: List[tuple] = []
    for node_index in sorted(per_node):
        node_splits = per_node[node_index]
        num_tasks = min(slots_per_node, len(node_splits))
        buckets: List[List[TaggedSplit]] = [[] for _ in range(num_tasks)]
        for position, tagged in enumerate(node_splits):
            buckets[position % num_tasks].append(tagged)
        for bucket in buckets:
            groups.append((node_index, bucket))
    return groups
