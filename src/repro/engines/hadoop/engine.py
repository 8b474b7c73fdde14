"""The Hadoop 1.2.1 MapReduce engine, simulated.

Models exactly the behaviours the paper contrasts with DataMPI:

* **Heavy job control** — JobClient stages the job to the JobTracker,
  TaskTrackers pick tasks up on heartbeats, and *every* task launch pays
  a JVM spawn (per wave — the "process management overhead" the paper's
  JOB3 breakdown highlights).
* **Coarse-grained shuffle** — map tasks sort/spill their output to
  local disk (io.sort.mb buffer), merge the spills, and reducers *copy*
  each finished map's partition over HTTP after the map completes;
  reducers launch after a slow-start fraction of maps are done.
* **Separate map/reduce slots** — 4 + 4 per node, as configured on the
  paper's testbed.
* **Task-granular fault tolerance** — the property the paper credits to
  MapReduce (§I, §VI).  Every map/reduce runs as a chain of *attempts*:
  a failed or crash-interrupted attempt is torn down (slot released,
  heap freed, partial output discarded) and re-executed, preferably
  elsewhere; completed map output lost with its node is recomputed;
  straggling maps get speculative backup attempts; nodes that keep
  failing attempts are blacklisted for the rest of the job.  Faults
  arrive through :class:`repro.simulate.faults.FaultInjector`.

The functional work (operator pipelines, partition/sort/group/reduce) is
the shared code in :mod:`repro.engines.base`; this module adds *when*
and *at what cost* through the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import (
    BLACKLIST_THRESHOLD,
    Configuration,
    EXEC_VECTORIZED,
    SPECULATIVE_EXECUTION,
    SPECULATIVE_SLOWDOWN,
    TASK_MAX_ATTEMPTS,
)
from repro.common.kv import KeyValue
from repro.common.units import MB
from repro.engines.base import (
    Engine,
    EngineCapabilities,
    EngineRuntime,
    JobTiming,
    MapOutputCollector,
    PlanResult,
    TaskTiming,
    TaggedSplit,
    assign_splits_locality,
    charge_split_read,
    close_job_span,
    close_task_span,
    collect_plan_result,
    hdfs_write_pipeline,
    decide_num_reducers,
    expand_job_splits,
    job_input_scale,
    load_broadcast_tables,
    map_cpu_ms,
    open_job_span,
    open_task_span,
    pick_node,
    record_job_metrics,
    run_map_compute,
    run_reducer_functionally,
    scan_split,
    scan_split_batch,
    write_task_output,
)
from repro.obs import Tracer, get_metrics
from repro.plan.physical import MRJob, PhysicalPlan
from repro.simulate import (
    Cluster,
    ClusterSpec,
    FaultInjector,
    Interrupt,
    LeaseManager,
    LeaseOwner,
    Simulator,
    SlotPool,
)
from repro.storage.hdfs import HDFS


@dataclass
class HadoopCosts:
    """Calibrated latencies/rates for the Hadoop engine (testbed §V-A)."""

    job_submit: float = 2.2  # JobClient staging + JobTracker admission
    schedule_delay: float = 1.4  # TaskTracker heartbeat pickup, per wave start
    task_jvm_start: float = 1.3  # child JVM spawn per task attempt
    job_cleanup: float = 0.8  # commit + JobTracker retirement
    cpu_map_ms_per_mb: float = 35.0  # deserialize + operator pipeline, text-rate
    cpu_reduce_ms_per_mb: float = 14.0
    cpu_sort_ms_per_mb: float = 7.0  # per merge pass
    cpu_orc_decode_ms_per_mb: float = 14.0  # extra per encoded MB (decompression)
    io_sort_mb: float = 100.0  # map-output buffer before spill (logical MB)
    shuffle_memory_mb: float = 450.0  # reducer in-memory shuffle budget (logical MB)
    slowstart_fraction: float = 0.05  # maps done before reducers launch
    batch_target_mb: float = 8.0  # compute/I-O interleave granularity
    min_batch_rows: int = 200
    # mapred.compress.map.output=true: intermediate data shrinks to this
    # fraction on disk/wire at a CPU cost per (uncompressed) MB
    compress_ratio: float = 0.40
    cpu_compress_ms_per_mb: float = 4.0
    cpu_decompress_ms_per_mb: float = 1.5
    parallel_copies: int = 5  # mapred.reduce.parallel.copies
    speculative_check_seconds: float = 5.0  # straggler-watch polling period


DEFAULT_MAX_TASK_ATTEMPTS = 4  # mapred.map.max.attempts
DEFAULT_BLACKLIST_FAILURES = 3  # mapred.max.tracker.failures (per job)
DEFAULT_SPECULATIVE_SLOWDOWN = 1.5  # lateness multiple that triggers a backup


@dataclass
class _FaultContext:
    """Per-job recovery policy: attempt caps, blacklist, speculation."""

    injector: FaultInjector
    max_attempts: int = DEFAULT_MAX_TASK_ATTEMPTS
    blacklist_threshold: int = DEFAULT_BLACKLIST_FAILURES
    speculate: bool = False
    spec_slowdown: float = DEFAULT_SPECULATIVE_SLOWDOWN
    spec_interval: float = 5.0
    blacklist: Set[int] = field(default_factory=set)
    failures_by_node: Dict[int, int] = field(default_factory=dict)

    def record_failure(self, node_index: int, timing: JobTiming) -> None:
        timing.failed_attempts += 1
        get_metrics().counter("cluster.tasks.failed").add(1)
        count = self.failures_by_node.get(node_index, 0) + 1
        self.failures_by_node[node_index] = count
        if count >= self.blacklist_threshold and node_index not in self.blacklist:
            self.blacklist.add(node_index)
            get_metrics().counter("hadoop.nodes.blacklisted").add(1)
            get_metrics().gauge("hadoop.blacklist.size").set(len(self.blacklist))


class _JobState:
    """Mutable coordination state shared by a job's task processes."""

    def __init__(self, sim: Simulator, num_maps: int, num_reducers: int):
        self.sim = sim
        self.maps_done = 0
        self.num_maps = num_maps
        self.num_reducers = num_reducers
        # map_index -> (node, collector, scale); filled as maps finish,
        # entries removed again when the hosting node dies (lost output)
        self.map_outputs: Dict[int, Tuple[int, MapOutputCollector, float]] = {}
        self.map_completion_events: List = []  # one Event per map (replaced on loss)
        self.slowstart_event = sim.event()
        self.all_maps_event = sim.event()
        self.last_copy_done = 0.0
        self.compress_ratio = 1.0  # <1 when mapred.compress.map.output
        self.vectorized = False  # repro.exec.vectorized, read at job start
        self.map_task_records: Dict[int, TaskTiming] = {}
        self.map_durations: List[float] = []  # successful runs, for speculation

    def map_finished(self, map_index: int, node: int,
                     collector: MapOutputCollector, scale: float) -> None:
        self.map_outputs[map_index] = (node, collector, scale)
        self.maps_done += 1
        event = self.map_completion_events[map_index]
        if not event.triggered:
            event.trigger(None)
        if not self.slowstart_event.triggered:
            self.slowstart_event.trigger(None)
        if self.maps_done == self.num_maps and not self.all_maps_event.triggered:
            self.all_maps_event.trigger(None)

    def invalidate_map(self, map_index: int) -> bool:
        """Forget a completed map whose local output died with its node.

        Installs a fresh completion event; fetchers re-check
        ``map_outputs`` membership, never just event state, so stale
        triggers from the old event are harmless.
        """
        if map_index not in self.map_outputs:
            return False
        del self.map_outputs[map_index]
        self.maps_done -= 1
        self.map_completion_events[map_index] = self.sim.event()
        return True

    def mean_map_duration(self) -> Optional[float]:
        if not self.map_durations:
            return None
        return sum(self.map_durations) / len(self.map_durations)


class HadoopEngine(Engine):
    name = "hadoop"
    capabilities = EngineCapabilities(
        vectorized=True, speculative=True, shared_runtime=True
    )

    def __init__(
        self,
        hdfs: HDFS,
        spec: Optional[ClusterSpec] = None,
        costs: Optional[HadoopCosts] = None,
    ):
        self.hdfs = hdfs
        self.spec = spec or ClusterSpec()
        self.costs = costs or HadoopCosts()

    # -- public API ---------------------------------------------------------
    def run_plan(
        self,
        plan: PhysicalPlan,
        conf: Optional[Configuration] = None,
        with_metrics: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> PlanResult:
        conf = conf or Configuration()
        runtime = EngineRuntime(
            self.spec, conf, with_metrics=with_metrics, tracer=tracer
        )
        timings: List[JobTiming] = []

        def driver():
            collected = yield from self.plan_process(runtime, plan, conf)
            timings.extend(collected)

        runtime.sim.spawn(driver(), "hive-driver")
        try:
            runtime.sim.run()
        finally:
            runtime.close()
        return collect_plan_result(self, runtime, plan, timings)

    def plan_process(
        self,
        runtime: EngineRuntime,
        plan: PhysicalPlan,
        conf: Optional[Configuration] = None,
        owner: Optional[LeaseOwner] = None,
    ):
        """Execute *plan* job-by-job inside a (possibly shared) runtime."""
        conf = conf or Configuration()
        reduce_slots = runtime.aux_slots(
            "hadoop.reduce", runtime.spec.slots_per_node, "rslots"
        )
        timings: List[JobTiming] = []
        for index, job in enumerate(plan.jobs):
            is_last = index == len(plan.jobs) - 1
            timing = yield from self._run_job(
                runtime.sim, runtime.cluster, reduce_slots, job, conf,
                is_last, runtime.tracer, runtime.injector, runtime.leases,
                owner,
            )
            timings.append(timing)
        return timings

    # -- job execution -----------------------------------------------------------
    def _run_job(self, sim: Simulator, cluster: Cluster,
                 reduce_slots: List[SlotPool], job: MRJob,
                 conf: Configuration, is_last: bool, tracer: Tracer,
                 injector: FaultInjector, leases: LeaseManager,
                 owner: Optional[LeaseOwner]):
        costs = self.costs
        hdfs = self.hdfs
        workers = cluster.workers
        splits = expand_job_splits(job, hdfs)
        small_tables = load_broadcast_tables(job, hdfs)
        scale = job_input_scale(job, hdfs)
        total_bytes = sum(s.logical_bytes for s in splits)
        num_reducers = decide_num_reducers(
            job, len(splits), total_bytes, conf, is_last, self.spec.total_slots
        )
        timing = JobTiming(
            job_id=job.job_id,
            submitted=sim.now,
            num_maps=len(splits),
            num_reducers=num_reducers,
        )
        timing.span = open_job_span(tracer, self.name, job, sim.now, owner)
        ctx = _FaultContext(
            injector=injector,
            max_attempts=max(1, conf.get_int(TASK_MAX_ATTEMPTS,
                                             DEFAULT_MAX_TASK_ATTEMPTS)),
            blacklist_threshold=max(1, conf.get_int(BLACKLIST_THRESHOLD,
                                                    DEFAULT_BLACKLIST_FAILURES)),
            speculate=conf.get_bool(SPECULATIVE_EXECUTION, False),
            spec_slowdown=conf.get_float(SPECULATIVE_SLOWDOWN,
                                         DEFAULT_SPECULATIVE_SLOWDOWN),
            spec_interval=costs.speculative_check_seconds,
        )

        # JobClient -> JobTracker staging
        yield sim.timeout(costs.job_submit)

        if not splits:
            write_task_output(job, hdfs, 0, [], scale)
            timing.first_task_started = sim.now
            timing.shuffle_done = sim.now
            yield sim.timeout(costs.job_cleanup)
            timing.finished = sim.now
            close_job_span(timing)
            record_job_metrics(self.name, timing, self.spec.total_slots)
            return timing

        state = _JobState(sim, len(splits), num_reducers)
        state.map_completion_events = [sim.event() for _ in splits]
        assignment = assign_splits_locality(splits, len(workers))
        first_start_event = sim.event()

        compress = conf.get_bool("mapred.compress.map.output", False)
        state.compress_ratio = self.costs.compress_ratio if compress else 1.0
        state.vectorized = conf.get_bool(EXEC_VECTORIZED, True)
        map_processes = [
            sim.spawn(
                self._map_task(
                    sim, cluster, job, state, timing, index, tagged,
                    assignment[index], small_tables, num_reducers,
                    first_start_event, scale, ctx, leases, owner,
                ),
                f"{job.job_id}-m{index}",
            )
            for index, tagged in enumerate(splits)
        ]

        reduce_processes = []
        if not job.is_map_only:
            for partition in range(num_reducers):
                node_index = partition % len(workers)
                reduce_processes.append(
                    sim.spawn(
                        self._reduce_task(
                            sim, cluster, reduce_slots, job, state, timing,
                            partition, node_index, small_tables, scale, ctx,
                            leases, owner,
                        ),
                        f"{job.job_id}-r{partition}",
                    )
                )

        # a dead node takes the map outputs on its local disks with it:
        # the JobTracker re-executes those completed maps (shuffle jobs
        # only — map-only output already sits in replicated HDFS)
        respawned: List = []

        def on_crash(worker_index: int) -> None:
            if job.is_map_only:
                return
            for map_index, entry in sorted(state.map_outputs.items()):
                if entry[0] != worker_index:
                    continue
                state.invalidate_map(map_index)
                get_metrics().counter("hadoop.maps.lost").add(1)
                respawned.append(
                    sim.spawn(
                        self._map_task(
                            sim, cluster, job, state, timing, map_index,
                            splits[map_index], assignment[map_index],
                            small_tables, num_reducers, first_start_event,
                            scale, ctx, leases, owner,
                            task=state.map_task_records[map_index],
                        ),
                        f"{job.job_id}-m{map_index}-rerun",
                    )
                )

        injector.subscribe_crash(on_crash)
        try:
            pending = map_processes + reduce_processes
            while pending:
                yield sim.all_of(pending)
                pending = respawned[:]
                del respawned[:]
        finally:
            # an interrupt (query deadline) must not leave a stale
            # subscriber respawning tasks for an abandoned job
            injector.unsubscribe_crash(on_crash)

        if job.is_map_only:
            timing.shuffle_done = sim.now
        else:
            timing.shuffle_done = max(timing.shuffle_done, state.last_copy_done)
        yield sim.timeout(costs.job_cleanup)
        timing.finished = sim.now
        timing.shuffle_logical_bytes = sum(
            collector.total_bytes * map_scale
            for _node, collector, map_scale in state.map_outputs.values()
        )
        yield first_start_event  # already triggered by the first map
        timing.first_task_started = first_start_event.value
        close_job_span(timing)
        record_job_metrics(self.name, timing, self.spec.total_slots)
        return timing

    # -- map task -------------------------------------------------------------------
    def _map_task(self, sim: Simulator, cluster: Cluster, job: MRJob,
                  state: _JobState, timing: JobTiming, index: int,
                  tagged: TaggedSplit, preferred: int, small_tables,
                  num_reducers: int, first_start_event, job_scale: float,
                  ctx: _FaultContext, leases: LeaseManager,
                  owner: Optional[LeaseOwner],
                  task: Optional[TaskTiming] = None):
        """Coordinator for one logical map: runs attempts (with optional
        speculative backups) until one succeeds, then publishes the map
        output."""
        fresh = task is None
        if fresh:
            task = TaskTiming(task_id=f"m{index}", kind="map", node=preferred,
                              scheduled=sim.now)
            timing.tasks.append(task)
            open_task_span(timing, task)
            state.map_task_records[index] = task
        elif task.span is not None:
            task.span.add_event("re-execute", sim.now, reason="lost-map-output")

        commit_cell: Dict[str, bool] = {}
        attempt = 0
        while True:
            attempt += 1
            if not (fresh and attempt == 1):
                task.attempts += 1
            execution = task.attempts
            chosen = pick_node(cluster, preferred,
                               0 if attempt == 1 else attempt,
                               blacklist=ctx.blacklist)
            doom = None
            if attempt < ctx.max_attempts:  # the last attempt always runs clean
                doom = ctx.injector.attempt_doom(job.job_id, task.task_id, execution)
            proc = sim.spawn(
                self._map_attempt(
                    sim, cluster, job, state, task, tagged, chosen,
                    small_tables, num_reducers, first_start_event, job_scale,
                    index, doom, commit_cell, leases, owner,
                ),
                f"{job.job_id}-{task.task_id}-e{execution}",
            )
            ctx.injector.register(chosen, proc)
            if ctx.speculate and doom is None:
                result, winner = yield from self._speculate(
                    sim, cluster, state, ctx, task, proc, chosen, index,
                    lambda backup_node: self._map_attempt(
                        sim, cluster, job, state, task, tagged, backup_node,
                        small_tables, num_reducers, first_start_event,
                        job_scale, index, None, commit_cell, leases, owner,
                    ),
                    f"{job.job_id}-{task.task_id}",
                )
                if winner is not None:
                    chosen = winner
            else:
                result = yield proc
                ctx.injector.unregister(chosen, proc)
            outcome = result[0] if isinstance(result, tuple) else "killed"
            if outcome == "ok":
                _tag, collector, map_result = result
                task.node = chosen
                task.rows_read = map_result.rows_read
                task.kv_pairs = map_result.kv_pairs
                task.kv_bytes = map_result.kv_bytes * tagged.split.scale
                task.finished = sim.now
                close_task_span(task)
                state.map_durations.append(task.finished - task.scheduled)
                state.map_finished(index, chosen, collector, tagged.split.scale)
                return
            ctx.record_failure(chosen, timing)
            if task.span is not None:
                task.span.add_event("attempt-failed", sim.now,
                                    outcome=outcome, node=chosen,
                                    execution=execution)

    def _map_attempt(self, sim: Simulator, cluster: Cluster, job: MRJob,
                     state: _JobState, task: TaskTiming, tagged: TaggedSplit,
                     node_index: int, small_tables, num_reducers: int,
                     first_start_event, job_scale: float, index: int,
                     doom: Optional[float], commit_cell: Dict[str, bool],
                     leases: LeaseManager, owner: Optional[LeaseOwner]):
        """One map attempt; returns ("ok", collector, result) or
        ("failed"|"killed"|"lost-race", cause).  All resources it holds
        are released on every exit path, interrupt included."""
        costs = self.costs
        node = cluster.workers[node_index]
        acquired = leases.acquire(node.slots, owner)
        held_slot = False
        held_heap = 0.0
        committed = False
        collector = None
        result = None
        try:
            yield acquired
            held_slot = True
            node.memory.allocate(self.spec.heap_per_task)  # child JVM footprint
            held_heap = self.spec.heap_per_task
            # heartbeat pickup + JVM spawn
            yield sim.timeout(costs.schedule_delay)
            yield from node.compute(costs.task_jvm_start)
            task.started = sim.now
            if not first_start_event.triggered:
                first_start_event.trigger(sim.now)

            if doom is not None:
                # injected failure: burn the work done up to the doom point,
                # then die — the coordinator re-launches elsewhere
                if state.vectorized:
                    _rows, bytes_to_read = scan_split_batch(tagged)
                else:
                    _rows, bytes_to_read = scan_split(tagged)
                partial = bytes_to_read * doom
                yield from charge_split_read(cluster, node, node_index,
                                             tagged, partial)
                yield from node.compute(
                    partial / MB * costs.cpu_map_ms_per_mb / 1000.0
                )
                return ("failed", "injected")

            # compute the whole split, recording the collector's
            # cumulative bytes after each batch, then replay the batches
            # against the simulator
            collector = MapOutputCollector(num_reducers)
            _bytes_to_read, records, result = run_map_compute(
                tagged, collector, num_partitions=num_reducers,
                small_tables=small_tables, vectorized=state.vectorized,
                map_only=job.is_map_only,
                batching=(costs.batch_target_mb, costs.min_batch_rows),
                record=lambda: collector.total_bytes,
            )

            scale = tagged.split.scale
            spilled_mark = 0.0
            spills = 0
            for batch_bytes, collected_bytes in records:
                # read this chunk (locally or from a replica over the net)
                yield from charge_split_read(cluster, node, node_index,
                                             tagged, batch_bytes)
                cpu_ms = map_cpu_ms(costs, tagged, batch_bytes)
                yield from node.compute(cpu_ms / 1000.0)
                emitted = collected_bytes * scale
                task.collect_samples.append((sim.now, collected_bytes))
                # spill when the in-memory map-output buffer overflows
                while emitted - spilled_mark > costs.io_sort_mb * MB:
                    spill_bytes = costs.io_sort_mb * MB
                    spilled_mark += spill_bytes
                    spills += 1
                    spill_span = (
                        task.span.start_child("spill", sim.now, category="spill",
                                              bytes=spill_bytes, node=node_index)
                        if task.span is not None else None
                    )
                    get_metrics().counter("hadoop.spill.bytes").add(spill_bytes)
                    cpu_ms = spill_bytes / MB * costs.cpu_sort_ms_per_mb
                    if state.compress_ratio < 1.0:
                        cpu_ms += spill_bytes / MB * costs.cpu_compress_ms_per_mb
                    yield from node.compute(cpu_ms / 1000.0)
                    yield from node.disk_write(spill_bytes * state.compress_ratio)
                    if spill_span is not None:
                        spill_span.finish(sim.now)

            emitted = collector.total_bytes * scale
            ratio = state.compress_ratio
            final_spill = emitted - spilled_mark
            if final_spill > 0 and not job.is_map_only:
                cpu_ms = final_spill / MB * costs.cpu_sort_ms_per_mb
                if ratio < 1.0:
                    cpu_ms += final_spill / MB * costs.cpu_compress_ms_per_mb
                yield from node.compute(cpu_ms / 1000.0)
                yield from node.disk_write(final_spill * ratio)
            if spills > 0 and not job.is_map_only:
                # merge the spill files into the final map output
                yield from node.disk_read(emitted * ratio)
                yield from node.compute(emitted / MB * costs.cpu_sort_ms_per_mb / 1000.0)
                yield from node.disk_write(emitted * ratio)

            if job.is_map_only:
                # commit point: exactly one attempt may write the part-file
                # (speculative backups lose the race here)
                if commit_cell.get("done"):
                    return ("lost-race", None)
                commit_cell["done"] = True
                data_file = write_task_output(
                    job, self.hdfs, index, result.output_rows, job_scale,
                    writer_node=node_index,
                )
                committed = True
                yield from hdfs_write_pipeline(cluster, node, data_file)

            return ("ok", collector, result)
        except Interrupt as interrupt:
            if committed:
                # output already durable in replicated HDFS — the task
                # succeeded even though its node just died
                return ("ok", collector, result)
            return ("killed", interrupt.cause)
        finally:
            if held_heap:
                node.memory.free(held_heap)
            if held_slot:
                leases.release(node.slots, owner)
            else:
                leases.cancel(node.slots, acquired, owner)

    # -- speculative execution ---------------------------------------------------
    def _speculate(self, sim: Simulator, cluster: Cluster, state: _JobState,
                   ctx: _FaultContext, task: TaskTiming, primary,
                   primary_node: int, salt: int, make_attempt, name: str):
        """Watch a running attempt; once it lags the fleet, launch a
        backup on another node and keep whichever finishes first.
        Returns (result, winner_node or None for the primary)."""
        backup = None
        backup_node = None
        started = sim.now
        while True:
            if backup is None:
                yield sim.any_of([primary, sim.timeout(ctx.spec_interval)])
                if primary.triggered:
                    ctx.injector.unregister(primary_node, primary)
                    return primary.value, None
                estimate = state.mean_map_duration()
                if estimate is None:
                    continue
                if (sim.now - started) <= ctx.spec_slowdown * estimate:
                    continue
                candidates = [
                    i for i in ctx.injector.schedulable_worker_indices()
                    if i != primary_node and i not in ctx.blacklist
                ]
                if not candidates:
                    continue
                backup_node = candidates[(primary_node + salt) % len(candidates)]
                backup = sim.spawn(make_attempt(backup_node), f"{name}-spec")
                ctx.injector.register(backup_node, backup)
                task.attempts += 1
                get_metrics().counter("hadoop.tasks.speculative").add(1)
                if task.span is not None:
                    task.span.add_event("speculative-launch", sim.now,
                                        node=backup_node)
                continue
            yield sim.any_of([primary, backup])
            if primary.triggered:
                first, first_node = primary, primary_node
                second, second_node = backup, backup_node
            else:
                first, first_node = backup, backup_node
                second, second_node = primary, primary_node
            value = first.value
            ctx.injector.unregister(first_node, first)
            if isinstance(value, tuple) and value[0] == "ok":
                if second.alive:
                    second.interrupt("speculation-lost")
                    yield second
                ctx.injector.unregister(second_node, second)
                if first is backup:
                    task.speculative = True
                return value, first_node
            # the finished one failed: whatever the survivor produces wins
            value = yield second
            ctx.injector.unregister(second_node, second)
            if isinstance(value, tuple) and value[0] == "ok" and second is backup:
                task.speculative = True
            return value, second_node

    # -- reduce task -----------------------------------------------------------------
    def _reduce_task(self, sim: Simulator, cluster: Cluster,
                     reduce_slots: List[SlotPool], job: MRJob, state: _JobState,
                     timing: JobTiming, partition: int, preferred: int,
                     small_tables, scale: float, ctx: _FaultContext,
                     leases: LeaseManager, owner: Optional[LeaseOwner]):
        """Coordinator for one logical reduce: attempt-level retry, same
        contract as maps (covers ``repro.failure.rate`` for reduces too)."""
        task = TaskTiming(task_id=f"r{partition}", kind="reduce", node=preferred,
                          scheduled=sim.now)
        timing.tasks.append(task)
        open_task_span(timing, task)

        yield state.slowstart_event  # launch after the first maps complete
        commit_cell: Dict[str, bool] = {}
        attempt = 0
        while True:
            attempt += 1
            if attempt > 1:
                task.attempts += 1
            chosen = pick_node(cluster, preferred,
                               0 if attempt == 1 else attempt,
                               blacklist=ctx.blacklist)
            doom = None
            if attempt < ctx.max_attempts:
                doom = ctx.injector.attempt_doom(job.job_id, task.task_id,
                                                 task.attempts)
            proc = sim.spawn(
                self._reduce_attempt(
                    sim, cluster, reduce_slots, job, state, task, partition,
                    chosen, small_tables, scale, doom, commit_cell, leases,
                    owner,
                ),
                f"{job.job_id}-{task.task_id}-e{task.attempts}",
            )
            ctx.injector.register(chosen, proc)
            result = yield proc
            ctx.injector.unregister(chosen, proc)
            outcome = result[0] if isinstance(result, tuple) else "killed"
            if outcome == "ok":
                task.node = chosen
                task.finished = sim.now
                close_task_span(task)
                return
            ctx.record_failure(chosen, timing)
            if task.span is not None:
                task.span.add_event("attempt-failed", sim.now,
                                    outcome=outcome, node=chosen,
                                    execution=task.attempts)

    def _reduce_attempt(self, sim: Simulator, cluster: Cluster,
                        reduce_slots: List[SlotPool], job: MRJob,
                        state: _JobState, task: TaskTiming, partition: int,
                        node_index: int, small_tables, scale: float,
                        doom: Optional[float], commit_cell: Dict[str, bool],
                        leases: LeaseManager, owner: Optional[LeaseOwner]):
        costs = self.costs
        node = cluster.workers[node_index]
        acquired = leases.acquire(reduce_slots[node_index], owner)
        held_slot = False
        held_heap = 0.0
        committed = False
        fetchers: List = []
        try:
            yield acquired
            held_slot = True
            node.memory.allocate(self.spec.heap_per_task)  # reduce JVM footprint
            held_heap = self.spec.heap_per_task
            yield sim.timeout(costs.schedule_delay)
            yield from node.compute(costs.task_jvm_start)
            task.started = sim.now

            # copy phase: mapred.reduce.parallel.copies concurrent fetcher
            # threads pull each map's partition as the map completes
            shuffle_span = (
                task.span.start_child("shuffle", sim.now, category="shuffle",
                                      node=node_index)
                if task.span is not None else None
            )
            fetch_slots = SlotPool(sim, costs.parallel_copies,
                                   f"{task.task_id}.fetchers")
            copied_cell = [0.0]
            pairs_by_map: Dict[int, List[KeyValue]] = {}
            fetchers = [
                sim.spawn(
                    self._fetch_map_output(
                        sim, cluster, state, node, partition, map_index,
                        fetch_slots, copied_cell, pairs_by_map,
                    ),
                    f"{task.task_id}-f{map_index}",
                )
                for map_index in range(state.num_maps)
            ]
            yield sim.all_of(fetchers)
            copied = copied_cell[0]
            state.last_copy_done = max(state.last_copy_done, sim.now)
            task.kv_bytes = copied
            if shuffle_span is not None:
                shuffle_span.finish(sim.now, bytes=copied, maps=state.num_maps)

            if doom is not None:
                # injected failure during the sort/merge phase: the whole
                # copy is thrown away and redone by the next attempt
                return ("failed", "injected")

            # merge-sort phase
            if copied > 0:
                yield from node.compute(copied / MB * costs.cpu_sort_ms_per_mb / 1000.0)
                if copied > costs.shuffle_memory_mb * MB:
                    # read back spilled (compressed) runs
                    yield from node.disk_read(copied * state.compress_ratio)

            pairs: List[KeyValue] = []
            for map_index in range(state.num_maps):
                pairs.extend(pairs_by_map.get(map_index, ()))
            output_rows = run_reducer_functionally(job, pairs, small_tables)

            yield from node.compute(copied / MB * costs.cpu_reduce_ms_per_mb / 1000.0)
            if commit_cell.get("done"):
                return ("lost-race", None)
            commit_cell["done"] = True
            data_file = write_task_output(
                job, self.hdfs, partition, output_rows, scale,
                writer_node=node_index,
            )
            committed = True
            yield from hdfs_write_pipeline(cluster, node, data_file)
            return ("ok",)
        except Interrupt as interrupt:
            for fetcher in fetchers:
                if fetcher.alive:
                    fetcher.interrupt(interrupt.cause)
            if committed:
                return ("ok",)
            return ("killed", interrupt.cause)
        finally:
            if held_heap:
                node.memory.free(held_heap)
            if held_slot:
                leases.release(reduce_slots[node_index], owner)
            else:
                leases.cancel(reduce_slots[node_index], acquired, owner)

    def _fetch_map_output(self, sim: Simulator, cluster: Cluster,
                          state: _JobState, node, partition: int,
                          map_index: int, fetch_slots: SlotPool,
                          copied_cell: List[float],
                          pairs_by_map: Dict[int, List[KeyValue]]):
        """One fetcher: wait for the map, grab a copier slot, pull the
        partition (disk at the source, network, decompress), spill past
        the in-memory shuffle budget.

        Copied data is safe on the reduce side (a map-node death cannot
        take it back); a death *mid-copy* re-waits for the re-executed
        map and pulls again."""
        costs = self.costs
        while True:
            while map_index not in state.map_outputs:
                yield state.map_completion_events[map_index]
            entry = state.map_outputs[map_index]
            source_index, collector, map_scale = entry
            raw_chunk = collector.partition_bytes[partition] * map_scale
            chunk = raw_chunk * state.compress_ratio
            if chunk <= 0:
                pairs_by_map[map_index] = list(collector.partitions[partition])
                return
            yield fetch_slots.acquire()
            try:
                source = cluster.workers[source_index]
                yield from source.disk_read(chunk)
                yield from cluster.network_transfer(source, node, chunk)
                if state.compress_ratio < 1.0:
                    yield from node.compute(
                        raw_chunk / MB * costs.cpu_decompress_ms_per_mb / 1000.0
                    )
                if state.map_outputs.get(map_index) is not entry:
                    continue  # source died mid-copy: re-fetch from the rerun
                pairs_by_map[map_index] = list(collector.partitions[partition])
                copied_cell[0] += raw_chunk
                if copied_cell[0] > costs.shuffle_memory_mb * MB:
                    yield from node.disk_write(chunk)  # overflow to disk
                return
            finally:
                fetch_slots.release()
