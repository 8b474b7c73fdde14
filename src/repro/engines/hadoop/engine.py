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
the shared code in :mod:`repro.engines.base`, and the job lifecycle
around an attempt (state, coordinators, retry, lost-map re-execution) is
:mod:`repro.engines.lifecycle`; this module holds Hadoop's policy hooks
and its attempt bodies — *when* things happen and *at what cost*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.config import (
    Configuration,
    MAPRED_COMPRESS_MAP_OUTPUT,
    SPECULATIVE_EXECUTION,
)
from repro.common.kv import Segments
from repro.common.units import MB
from repro.engines.base import (
    EngineRuntime,
    MapOutputCollector,
    TaskTiming,
    charge_split_read,
    child_span,
    map_cpu_ms,
    pick_node,
    run_map_compute,
    run_reducer_functionally,
)
from repro.engines.lifecycle import JobContext, TaskAttemptEngine
from repro.obs import get_metrics
from repro.plan.physical import PhysicalPlan
from repro.simulate import Interrupt, LeaseOwner, SlotPool


DEFAULT_BLACKLIST_FAILURES = 3  # mapred.max.tracker.failures (per job)
DEFAULT_SPECULATIVE_SLOWDOWN = 1.5  # lateness multiple that triggers a backup


class _HadoopJob(JobContext):
    """A job's context plus Hadoop's recovery policy state (blacklist,
    speculation) and what only its attempt bodies read."""

    def __init__(self, engine: "HadoopEngine", runtime: EngineRuntime, job,
                 conf: Configuration, is_last: bool,
                 owner: Optional[LeaseOwner], reduce_slots: List[SlotPool]):
        super().__init__(engine, runtime, job, conf, is_last, owner)
        self.reduce_slots = reduce_slots
        compress = conf.get_bool(MAPRED_COMPRESS_MAP_OUTPUT, False)
        self.compress_ratio = self.model.hadoop.compress_ratio if compress else 1.0
        self.speculate = conf.get_bool(SPECULATIVE_EXECUTION, False)
        self.blacklist: Set[int] = set()
        self.failures_by_node: Dict[int, int] = {}


class HadoopEngine(TaskAttemptEngine):
    name = "hadoop"
    aliases = ("mr",)

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
            "hadoop.reduce", runtime.model.cluster.slots_per_node, "rslots"
        )
        timings = []
        for index, job in enumerate(plan.jobs):
            ctx = _HadoopJob(self, runtime, job, conf,
                             index == len(plan.jobs) - 1, owner, reduce_slots)
            timings.append((yield from self.run_job(ctx)))
        return timings

    # -- lifecycle policy (see TaskAttemptEngine) ------------------------------
    def place(self, ctx: _HadoopJob, preferred: int, salt: int,
              index: int) -> int:
        return pick_node(ctx.cluster, preferred, salt, blacklist=ctx.blacklist)

    def reduce_gate(self, ctx: _HadoopJob):
        return ctx.slowstart_event  # launch after the first maps complete

    def record_failure(self, ctx: _HadoopJob, node_index: int) -> None:
        """Count the failure against its node; a node that keeps failing
        attempts is blacklisted for the rest of the job."""
        super().record_failure(ctx, node_index)
        count = ctx.failures_by_node.get(node_index, 0) + 1
        ctx.failures_by_node[node_index] = count
        if count >= DEFAULT_BLACKLIST_FAILURES and node_index not in ctx.blacklist:
            ctx.blacklist.add(node_index)
            get_metrics().counter("hadoop.nodes.blacklisted").add(1)
            get_metrics().gauge("hadoop.blacklist.size").set(len(ctx.blacklist))

    def supervise(self, ctx: _HadoopJob, task: TaskTiming, index: int, proc,
                  node_index: int, doom: Optional[float]):
        """Straggling maps get a speculative backup (an attempt already
        doomed to fail is not worth one)."""
        if task.kind == "map" and ctx.speculate and doom is None:
            return self._speculate(ctx, task, index, proc, node_index)
        return super().supervise(ctx, task, index, proc, node_index, doom)

    # -- map attempt -------------------------------------------------------------
    def map_attempt(self, ctx: _HadoopJob, task: TaskTiming, index: int,
                    node_index: int, doom: Optional[float]):
        """One map attempt; returns ("ok", collector, result) or
        ("failed"|"killed"|"lost-race", cause).  All resources it holds
        are released on every exit path, interrupt included."""
        costs = ctx.model.hadoop
        cpu = ctx.model.cpu
        heap = ctx.model.cluster.heap_per_task
        sim = ctx.sim
        cluster = ctx.cluster
        job = ctx.job
        tagged = ctx.splits[index]
        node = cluster.workers[node_index]
        hold = ctx.hold(node.slots)
        held_heap = 0.0
        try:
            yield from hold.take()
            node.memory.allocate(heap)  # child JVM footprint
            held_heap = heap
            # heartbeat pickup + JVM spawn
            yield sim.timeout(costs.schedule_delay)
            yield from node.compute(costs.task_jvm_start)
            ctx.started(task)
            if doom is not None:
                yield from ctx.burn_doomed(node_index, tagged, doom)
                return ("failed", "injected")

            # compute the whole split, recording the collector's
            # cumulative bytes after each batch, then replay the batches
            # against the simulator
            collector = MapOutputCollector(ctx.num_reducers)
            _bytes_to_read, records, result = run_map_compute(
                tagged, collector, num_partitions=ctx.num_reducers,
                small_tables=ctx.small_tables, map_only=job.is_map_only,
                batching=(cpu.batch_target_mb, cpu.min_batch_rows),
                record=lambda: collector.total_bytes,
            )

            scale = tagged.split.scale
            ratio = ctx.compress_ratio
            spilled_mark = 0.0
            spills = 0
            for batch_bytes, collected_bytes in records:
                # read this chunk (locally or from a replica over the net)
                yield from charge_split_read(cluster, node, node_index,
                                             tagged, batch_bytes)
                cpu_ms = map_cpu_ms(cpu, tagged, batch_bytes)
                yield from node.compute(cpu_ms / 1000.0)
                emitted = collected_bytes * scale
                task.collect_samples.append((sim.now, collected_bytes))
                # spill when the in-memory map-output buffer overflows
                while emitted - spilled_mark > costs.io_sort_mb * MB:
                    spill_bytes = costs.io_sort_mb * MB
                    spilled_mark += spill_bytes
                    spills += 1
                    spill_span = child_span(task, "spill", sim.now,
                                            bytes=spill_bytes, node=node_index)
                    get_metrics().counter("hadoop.spill.bytes").add(spill_bytes)
                    cpu_ms = spill_bytes / MB * cpu.sort_ms_per_mb
                    if ratio < 1.0:
                        cpu_ms += spill_bytes / MB * costs.cpu_compress_ms_per_mb
                    yield from node.compute(cpu_ms / 1000.0)
                    yield from node.disk_write(spill_bytes * ratio)
                    spill_span.finish(sim.now)

            emitted = collector.total_bytes * scale
            final_spill = emitted - spilled_mark
            if final_spill > 0 and not job.is_map_only:
                cpu_ms = final_spill / MB * cpu.sort_ms_per_mb
                if ratio < 1.0:
                    cpu_ms += final_spill / MB * costs.cpu_compress_ms_per_mb
                yield from node.compute(cpu_ms / 1000.0)
                yield from node.disk_write(final_spill * ratio)
            if spills > 0 and not job.is_map_only:
                # merge the spill files into the final map output
                yield from node.disk_read(emitted * ratio)
                yield from node.compute(emitted / MB * cpu.sort_ms_per_mb / 1000.0)
                yield from node.disk_write(emitted * ratio)

            if job.is_map_only and not (
                yield from ctx.commit(task, index, result.output, node_index)
            ):
                return ("lost-race", None)
            return ("ok", collector, result)
        except Interrupt as interrupt:
            return ("killed", interrupt.cause)
        finally:
            if held_heap:
                node.memory.free(held_heap)
            hold.give_back()

    # -- speculative execution ---------------------------------------------------
    def _speculate(self, ctx: _HadoopJob, task: TaskTiming, index: int,
                   primary, primary_node: int):
        """Watch a running map attempt; once it lags the fleet, launch a
        clean backup on another node and keep whichever finishes first.
        Returns (result, node it came from)."""
        sim = ctx.sim
        injector = ctx.injector
        check_seconds = ctx.model.hadoop.speculative_check_seconds
        backup = None
        backup_node = None
        started = sim.now
        while True:
            if backup is None:
                yield sim.any_of([
                    primary, sim.timeout(check_seconds)
                ])
                if primary.triggered:
                    injector.unregister(primary_node, primary)
                    return primary.value, primary_node
                if not ctx.map_durations:
                    continue
                estimate = sum(ctx.map_durations) / len(ctx.map_durations)
                if (sim.now - started) <= DEFAULT_SPECULATIVE_SLOWDOWN * estimate:
                    continue
                candidates = [
                    i for i in injector.schedulable_worker_indices()
                    if i != primary_node and i not in ctx.blacklist
                ]
                if not candidates:
                    continue
                backup_node = candidates[(primary_node + index) % len(candidates)]
                backup = sim.spawn(
                    self.map_attempt(ctx, task, index, backup_node, None),
                    f"{ctx.job.job_id}-{task.task_id}-spec",
                )
                injector.register(backup_node, backup)
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
            injector.unregister(first_node, first)
            if isinstance(value, tuple) and value[0] == "ok":
                if second.alive:
                    second.interrupt("speculation-lost")
                    yield second
                injector.unregister(second_node, second)
                if first is backup:
                    task.speculative = True
                return value, first_node
            # the finished one failed: whatever the survivor produces wins
            value = yield second
            injector.unregister(second_node, second)
            if isinstance(value, tuple) and value[0] == "ok" and second is backup:
                task.speculative = True
            return value, second_node

    # -- reduce attempt ----------------------------------------------------------
    def reduce_attempt(self, ctx: _HadoopJob, task: TaskTiming,
                       partition: int, node_index: int,
                       doom: Optional[float]):
        costs = ctx.model.hadoop
        heap = ctx.model.cluster.heap_per_task
        sim = ctx.sim
        cluster = ctx.cluster
        ratio = ctx.compress_ratio
        node = cluster.workers[node_index]
        hold = ctx.hold(ctx.reduce_slots[node_index])
        held_heap = 0.0
        fetchers: List = []
        try:
            yield from hold.take()
            node.memory.allocate(heap)  # reduce JVM footprint
            held_heap = heap
            yield sim.timeout(costs.schedule_delay)
            yield from node.compute(costs.task_jvm_start)
            task.started = sim.now

            # copy phase: mapred.reduce.parallel.copies concurrent fetcher
            # threads pull each map's partition as the map completes: disk
            # at the source, network, decompress; past the in-memory
            # shuffle budget the copy spills.  Copied data is safe on the
            # reduce side (a map-node death cannot take it back).
            shuffle_span = child_span(task, "shuffle", sim.now, node=node_index)
            fetch_slots = SlotPool(sim, costs.parallel_copies,
                                   f"{task.task_id}.fetchers")
            copied = 0.0
            pulled: List[Optional[Segments]] = [None] * ctx.num_maps

            def transfer(source_index: int, raw_chunk: float):
                source = cluster.workers[source_index]
                yield from source.disk_read(raw_chunk * ratio)
                yield from cluster.network_transfer(source, node,
                                                    raw_chunk * ratio)
                if ratio < 1.0:
                    yield from node.compute(
                        raw_chunk / MB * costs.cpu_decompress_ms_per_mb / 1000.0
                    )

            def landed(raw_chunk: float):
                nonlocal copied
                copied += raw_chunk
                if copied > costs.shuffle_memory_mb * MB:
                    yield from node.disk_write(raw_chunk * ratio)  # overflow

            def fetch(map_index: int):
                pulled[map_index], _bytes = yield from ctx.pull_map_output(
                    map_index, partition, transfer, fetch_slots, landed
                )

            fetchers = [
                sim.spawn(fetch(map_index), f"{task.task_id}-f{map_index}")
                for map_index in range(ctx.num_maps)
            ]
            yield sim.all_of(fetchers)
            ctx.last_copy_done = max(ctx.last_copy_done, sim.now)
            task.kv_bytes = copied
            shuffle_span.finish(sim.now, bytes=copied, maps=ctx.num_maps)

            if doom is not None:
                # injected failure during the sort/merge phase: the whole
                # copy is thrown away and redone by the next attempt
                return ("failed", "injected")

            pairs = Segments()
            for segments in pulled:
                pairs.extend(segments)
            spilled = 0.0
            if copied > costs.shuffle_memory_mb * MB:
                spilled = copied * ratio  # read back spilled (compressed) runs
            if not (yield from ctx.reduce_tail(
                task, partition, node_index, copied, pairs,
                run_reducer_functionally, spilled,
            )):
                return ("lost-race", None)
            return ("ok",)
        except Interrupt as interrupt:
            for fetcher in fetchers:
                if fetcher.alive:
                    fetcher.interrupt(interrupt.cause)
            return ("killed", interrupt.cause)
        finally:
            if held_heap:
                node.memory.free(held_heap)
            hold.give_back()
