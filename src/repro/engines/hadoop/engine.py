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
from repro.common.units import MB
from repro.engines.base import (
    EngineCapabilities,
    EngineRuntime,
    MapOutputCollector,
    TaskTiming,
    charge_split_read,
    hdfs_write_pipeline,
    map_cpu_ms,
    pick_node,
    run_map_compute,
    run_reducer_functionally,
    scan_split_batch,
    write_task_output,
)
from repro.engines.lifecycle import JobContext, TaskAttemptEngine
from repro.exec.shuffle import Segments
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
    capabilities = EngineCapabilities(speculative=True, shared_runtime=True)
    model_block = "hadoop"

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
        leases = ctx.leases
        owner = ctx.owner
        job = ctx.job
        tagged = ctx.splits[index]
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
            node.memory.allocate(heap)  # child JVM footprint
            held_heap = heap
            # heartbeat pickup + JVM spawn
            yield sim.timeout(costs.schedule_delay)
            yield from node.compute(costs.task_jvm_start)
            task.started = sim.now
            if not ctx.first_start_event.triggered:
                ctx.first_start_event.trigger(sim.now)

            if doom is not None:
                # injected failure: burn the work done up to the doom point,
                # then die — the coordinator re-launches elsewhere
                _batch, bytes_to_read = scan_split_batch(tagged)
                partial = bytes_to_read * doom
                yield from charge_split_read(cluster, node, node_index,
                                             tagged, partial)
                yield from node.compute(
                    partial / MB * cpu.map_ms_per_mb / 1000.0
                )
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
                    spill_span = (
                        task.span.start_child("spill", sim.now, category="spill",
                                              bytes=spill_bytes, node=node_index)
                        if task.span is not None else None
                    )
                    get_metrics().counter("hadoop.spill.bytes").add(spill_bytes)
                    cpu_ms = spill_bytes / MB * cpu.sort_ms_per_mb
                    if ratio < 1.0:
                        cpu_ms += spill_bytes / MB * costs.cpu_compress_ms_per_mb
                    yield from node.compute(cpu_ms / 1000.0)
                    yield from node.disk_write(spill_bytes * ratio)
                    if spill_span is not None:
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

            if job.is_map_only:
                # commit point: exactly one attempt may write the part-file
                # (speculative backups lose the race here)
                if not ctx.claim_commit(task):
                    return ("lost-race", None)
                data_file = write_task_output(
                    job, self.hdfs, index, result.output, ctx.scale,
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
        cpu = ctx.model.cpu
        heap = ctx.model.cluster.heap_per_task
        sim = ctx.sim
        cluster = ctx.cluster
        leases = ctx.leases
        owner = ctx.owner
        pool = ctx.reduce_slots[node_index]
        node = cluster.workers[node_index]
        acquired = leases.acquire(pool, owner)
        held_slot = False
        held_heap = 0.0
        committed = False
        fetchers: List = []
        try:
            yield acquired
            held_slot = True
            node.memory.allocate(heap)  # reduce JVM footprint
            held_heap = heap
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
            pairs_by_map: Dict[int, Segments] = {}
            fetchers = [
                sim.spawn(
                    self._fetch_map_output(
                        ctx, node, partition, map_index, fetch_slots,
                        copied_cell, pairs_by_map,
                    ),
                    f"{task.task_id}-f{map_index}",
                )
                for map_index in range(ctx.num_maps)
            ]
            yield sim.all_of(fetchers)
            copied = copied_cell[0]
            ctx.last_copy_done = max(ctx.last_copy_done, sim.now)
            task.kv_bytes = copied
            if shuffle_span is not None:
                shuffle_span.finish(sim.now, bytes=copied, maps=ctx.num_maps)

            if doom is not None:
                # injected failure during the sort/merge phase: the whole
                # copy is thrown away and redone by the next attempt
                return ("failed", "injected")

            # merge-sort phase
            if copied > 0:
                yield from node.compute(copied / MB * cpu.sort_ms_per_mb / 1000.0)
                if copied > costs.shuffle_memory_mb * MB:
                    # read back spilled (compressed) runs
                    yield from node.disk_read(copied * ctx.compress_ratio)

            pairs = Segments()
            for map_index in range(ctx.num_maps):
                if map_index in pairs_by_map:
                    pairs.extend(pairs_by_map[map_index])
            output = run_reducer_functionally(
                ctx.job, pairs, ctx.small_tables, vectorized=True
            )

            yield from node.compute(copied / MB * cpu.reduce_ms_per_mb / 1000.0)
            if not ctx.claim_commit(task):
                return ("lost-race", None)
            data_file = write_task_output(
                ctx.job, self.hdfs, partition, output, ctx.scale,
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
                leases.release(pool, owner)
            else:
                leases.cancel(pool, acquired, owner)

    def _fetch_map_output(self, ctx: _HadoopJob, node, partition: int,
                          map_index: int, fetch_slots: SlotPool,
                          copied_cell: List[float],
                          pairs_by_map: Dict[int, Segments]):
        """One fetcher: wait for the map, grab a copier slot, pull the
        partition (disk at the source, network, decompress), spill past
        the in-memory shuffle budget.

        Copied data is safe on the reduce side (a map-node death cannot
        take it back); a death *mid-copy* re-waits for the re-executed
        map and pulls again."""
        costs = ctx.model.hadoop
        cluster = ctx.cluster
        ratio = ctx.compress_ratio
        while True:
            while map_index not in ctx.map_outputs:
                yield ctx.map_completion_events[map_index]
            entry = ctx.map_outputs[map_index]
            source_index, collector, map_scale = entry
            raw_chunk = collector.partition_bytes[partition] * map_scale
            chunk = raw_chunk * ratio
            if chunk <= 0:
                pairs_by_map[map_index] = collector.partitions[partition]
                return
            yield fetch_slots.acquire()
            try:
                source = cluster.workers[source_index]
                yield from source.disk_read(chunk)
                yield from cluster.network_transfer(source, node, chunk)
                if ratio < 1.0:
                    yield from node.compute(
                        raw_chunk / MB * costs.cpu_decompress_ms_per_mb / 1000.0
                    )
                if ctx.map_outputs.get(map_index) is not entry:
                    continue  # source died mid-copy: re-fetch from the rerun
                pairs_by_map[map_index] = collector.partitions[partition]
                copied_cell[0] += raw_chunk
                if copied_cell[0] > costs.shuffle_memory_mb * MB:
                    yield from node.disk_write(chunk)  # overflow to disk
                return
            finally:
                fetch_slots.release()
