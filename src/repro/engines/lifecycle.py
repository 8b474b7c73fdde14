"""The task-attempt job lifecycle, written once.

Hadoop MapReduce and LLAP recover at the same granularity — one task
*attempt* — so everything around an attempt is the same code: per-job
state (:class:`JobContext`), the job driver (:meth:`TaskAttemptEngine.run_job`)
and the map/reduce coordinators that place, doom, spawn, classify and
retry attempts.  Inside an attempt, the commit point
(:meth:`JobContext.commit`) and the map-output pull
(:meth:`JobContext.pull_map_output`) are written here too, and the rest
of the scaffolding — slot hold, start stamp, doomed-map burn, reduce
tail — in :class:`~repro.engines.base.JobRun`, which DataMPI shares.
An engine contributes only its policy, through the hooks listed on
:class:`TaskAttemptEngine`, and its attempt bodies' charges.

DataMPI is deliberately not built on this: its unit of recovery is the
whole ``mpidrun`` submission (gang abort, resubmit), so it shares
:meth:`Engine.run_plan <repro.engines.base.Engine.run_plan>`, the job
prologue and :class:`~repro.engines.base.JobRun` but keeps its own job
loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import Configuration
from repro.engines.base import (
    Engine,
    EngineRuntime,
    JobRun,
    JobTiming,
    MapOutputCollector,
    SlotHold,
    TaskTiming,
    assign_splits_locality,
    close_job_span,
    close_task_span,
    decide_num_reducers,
    hdfs_write_pipeline,
    open_job_span,
    open_task,
    record_job_metrics,
    write_task_output,
)
from repro.obs import get_metrics
from repro.plan.physical import MRJob
from repro.simulate import Interrupt, LeaseOwner, SlotPool

DEFAULT_MAX_TASK_ATTEMPTS = 4  # mapred.map.max.attempts


class JobContext(JobRun):
    """One job's shared state — the single object its coordinators and
    attempt bodies receive.

    Adds to :class:`~repro.engines.base.JobRun` the job's timing record,
    the map-output bookkeeping the shuffle synchronizes on, the commit
    point and the map-output pull.  Engines subclass it to add what
    their own attempt bodies need.
    """

    def __init__(self, engine: Engine, runtime: EngineRuntime, job: MRJob,
                 conf: Configuration, is_last: bool,
                 owner: Optional[LeaseOwner]):
        super().__init__(engine, runtime, job, owner)
        sim = self.sim
        self.injector = runtime.injector
        self.num_maps = len(self.splits)
        self.num_reducers = decide_num_reducers(
            job, self.num_maps, self.total_bytes, conf, is_last,
            runtime.model.cluster.total_slots,
        )
        self.timing = JobTiming(
            job_id=job.job_id,
            submitted=sim.now,
            num_maps=self.num_maps,
            num_reducers=self.num_reducers,
        )
        self.timing.span = open_job_span(
            runtime.tracer, engine.name, job, sim.now, owner
        )
        # map_index -> (node, collector, scale); filled as maps finish,
        # entries removed again when the hosting node dies (lost output)
        self.map_outputs: Dict[int, Tuple[int, MapOutputCollector, float]] = {}
        self.map_completion_events = [sim.event() for _ in self.splits]
        self.maps_done = 0
        self.slowstart_event = sim.event()  # the first map completed
        self.all_maps_event = sim.event()
        self.last_copy_done = 0.0
        self.map_tasks: Dict[int, TaskTiming] = {}
        self.map_durations: List[float] = []  # successful runs, in order
        self.committed: Set[str] = set()  # task ids whose output is in HDFS

    def claim_commit(self, task: TaskTiming) -> bool:
        """True for exactly one attempt per task (speculative backups
        lose the race here)."""
        if task.task_id in self.committed:
            return False
        self.committed.add(task.task_id)
        return True

    def commit(self, task: TaskTiming, index: int, rows, node_index: int):
        """The commit point: the attempt that claims it writes the task's
        part-file, every other one gets False.  The written file is
        durable, so an interrupt during its replicated write still
        returns True — the task succeeded."""
        if not self.claim_commit(task):
            return False
        data_file = write_task_output(self.job, self.hdfs, index, rows,
                                      self.scale, writer_node=node_index)
        try:
            yield from hdfs_write_pipeline(
                self.cluster, self.cluster.workers[node_index], data_file
            )
        except Interrupt:
            pass  # the node died after the commit: the output survives
        return True

    def pull_map_output(self, map_index: int, partition: int, transfer,
                        gate: Optional[SlotPool] = None, landed=None,
                        hold: Optional[SlotHold] = None):
        """Generator pulling map *map_index*'s *partition* to a reducer;
        returns ``(segments, bytes)``.

        Waits for the map's output, then runs ``transfer(source node,
        bytes)`` (inside one of *gate*'s slots, when given).  If a crash
        replaced the output mid-copy the pull starts over from the
        re-executed map; otherwise ``landed(bytes)`` runs, still inside
        the gate.  *hold*, the attempt's own slot, is handed back while
        it waits for a re-run map, which may need that very slot.
        """
        while True:
            if map_index not in self.map_outputs:
                if hold is not None:
                    hold.give_back()
                while map_index not in self.map_outputs:
                    yield self.map_completion_events[map_index]
                if hold is not None:
                    yield from hold.take()
            entry = self.map_outputs[map_index]
            source_index, collector, map_scale = entry
            nbytes = collector.partition_bytes[partition] * map_scale
            segments = collector.partitions[partition]
            if nbytes <= 0:
                return segments, nbytes
            if gate is not None:
                yield gate.acquire()
            try:
                yield from transfer(source_index, nbytes)
                if self.map_outputs.get(map_index) is entry:
                    if landed is not None:
                        yield from landed(nbytes)
                    return segments, nbytes
            finally:
                if gate is not None:
                    gate.release()

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

    def invalidate_map(self, map_index: int) -> None:
        """Forget a completed map whose output died with its node.

        Installs a fresh completion event; consumers re-check
        ``map_outputs`` membership, never just event state, so stale
        triggers from the old event are harmless.
        """
        del self.map_outputs[map_index]
        self.maps_done -= 1
        self.map_completion_events[map_index] = self.sim.event()


class TaskAttemptEngine(Engine):
    """An engine whose jobs run as retried map and reduce task attempts.

    :meth:`run_job` drives one job from a :class:`JobContext` (or the
    engine's subclass of it).  Everything an engine may vary is one of
    these hooks, and nothing else:

    * the cost-model block named like the engine (``model.hadoop``,
      ...) — its ``job_submit`` / ``job_cleanup`` are the job-level
      entries;
    * :meth:`place` — which node a placement try lands on;
    * :meth:`admit` — what must hold on that node before an attempt may
      run there (default: nothing);
    * :meth:`reduce_gate` — the event reduce coordinators wait for;
    * :meth:`record_failure` — accounting for a dead attempt (default:
      count it);
    * :meth:`supervise` — how a running attempt is awaited (default:
      just wait for it);
    * :meth:`map_attempt` / :meth:`reduce_attempt` — the attempt bodies:
      what an attempt costs and how it moves shuffle data.  They return
      ``("ok", ...)``, ``("failed", cause)``, ``("killed", cause)`` or
      ``("lost-race", None)`` and release what they hold on every path.
      A body is its charges only: it takes its slot through
      :meth:`~repro.engines.base.JobRun.hold`, and stamps its start,
      burns a doomed split, pulls map output, runs its reduce tail and
      commits through the :class:`JobContext` it is handed.
    """

    # -- hooks ---------------------------------------------------------------
    def place(self, ctx: JobContext, preferred: int, salt: int,
              index: int) -> int:
        """Worker index for a placement try; ``salt`` is 0 on the first
        try and the try number afterwards, *index* the task's own."""
        raise NotImplementedError

    def admit(self, ctx: JobContext, node_index: int):
        """Generator run before an attempt is spawned on *node_index*;
        returning False sends the coordinator back to placement."""
        return True
        yield  # a generator with nothing to wait for

    def reduce_gate(self, ctx: JobContext):
        """The event a reduce coordinator waits for before its first
        attempt (one of *ctx*'s map-progress events)."""
        raise NotImplementedError

    def record_failure(self, ctx: JobContext, node_index: int) -> None:
        ctx.timing.failed_attempts += 1
        get_metrics().counter("cluster.tasks.failed").add(1)

    def supervise(self, ctx: JobContext, task: TaskTiming, index: int,
                  proc, node_index: int, doom: Optional[float]):
        """Generator awaiting the running, registered attempt *proc*;
        returns ``(result, node the result came from)``."""
        result = yield proc
        ctx.injector.unregister(node_index, proc)
        return result, node_index

    def map_attempt(self, ctx: JobContext, task: TaskTiming, index: int,
                    node_index: int, doom: Optional[float]):
        raise NotImplementedError

    def reduce_attempt(self, ctx: JobContext, task: TaskTiming, index: int,
                       node_index: int, doom: Optional[float]):
        raise NotImplementedError

    # -- job -----------------------------------------------------------------
    def run_job(self, ctx: JobContext):
        """Generator running *ctx*'s job; returns its :class:`JobTiming`."""
        sim = ctx.sim
        job = ctx.job
        timing = ctx.timing
        costs = getattr(ctx.model, self.name)
        yield sim.timeout(costs.job_submit)

        if ctx.splits:
            yield from self._run_tasks(ctx)
            if job.is_map_only:
                timing.shuffle_done = sim.now
            else:
                timing.shuffle_done = max(timing.shuffle_done,
                                          ctx.last_copy_done)
        else:
            write_task_output(job, self.hdfs, 0, [], ctx.scale)
            timing.first_task_started = sim.now
            timing.shuffle_done = sim.now
        yield sim.timeout(costs.job_cleanup)
        timing.finished = sim.now
        if ctx.splits:
            timing.shuffle_logical_bytes = sum(
                collector.total_bytes * map_scale
                for _node, collector, map_scale in ctx.map_outputs.values()
            )
            yield ctx.first_start_event  # already triggered by the first map
            timing.first_task_started = ctx.first_start_event.value
        close_job_span(timing)
        record_job_metrics(self.name, timing, ctx.model.cluster.total_slots)
        return timing

    def _run_tasks(self, ctx: JobContext):
        """Spawn every coordinator (maps before reduces) and wait for
        them, re-running completed maps whose output a crash took."""
        sim = ctx.sim
        job = ctx.job
        num_workers = len(ctx.cluster.workers)
        assignment = assign_splits_locality(ctx.splits, num_workers)
        pending = [
            sim.spawn(self._map_task(ctx, index, assignment[index]),
                      f"{job.job_id}-m{index}")
            for index in range(ctx.num_maps)
        ]
        if not job.is_map_only:
            pending += [
                sim.spawn(
                    self._reduce_task(ctx, partition, partition % num_workers),
                    f"{job.job_id}-r{partition}",
                )
                for partition in range(ctx.num_reducers)
            ]

        # a dead node takes the map outputs it hosted with it; those
        # completed maps re-execute (shuffle jobs only — map-only output
        # already sits in replicated HDFS)
        respawned: List = []

        def on_crash(worker_index: int) -> None:
            if job.is_map_only:
                return
            for map_index, entry in sorted(ctx.map_outputs.items()):
                if entry[0] != worker_index:
                    continue
                ctx.invalidate_map(map_index)
                get_metrics().counter(f"{self.name}.maps.lost").add(1)
                respawned.append(
                    sim.spawn(
                        self._map_task(ctx, map_index, assignment[map_index],
                                       task=ctx.map_tasks[map_index]),
                        f"{job.job_id}-m{map_index}-rerun",
                    )
                )

        ctx.injector.subscribe_crash(on_crash)
        try:
            while pending:
                yield sim.all_of(pending)
                pending = respawned[:]
                del respawned[:]
        finally:
            # an interrupt (query deadline) must not leave a stale
            # subscriber respawning tasks for an abandoned job
            ctx.injector.unsubscribe_crash(on_crash)

    # -- coordinators ----------------------------------------------------------
    def _map_task(self, ctx: JobContext, index: int, preferred: int,
                  task: Optional[TaskTiming] = None):
        """Coordinator for one logical map: runs attempts until one
        succeeds, then publishes the map output.  *task* is the existing
        record when a completed map re-executes after losing its output."""
        fresh = task is None
        if fresh:
            task = open_task(ctx.timing, f"m{index}", "map", preferred,
                             ctx.sim.now)
            ctx.map_tasks[index] = task
        elif task.span is not None:
            task.span.add_event("re-execute", ctx.sim.now,
                                reason="lost-map-output")
        result, node_index = yield from self._run_attempts(
            ctx, task, index, preferred, fresh, self.map_attempt
        )
        _tag, collector, map_result = result
        split_scale = ctx.splits[index].split.scale
        task.node = node_index
        task.rows_read = map_result.rows_read
        task.kv_pairs = map_result.kv_pairs
        task.kv_bytes = map_result.kv_bytes * split_scale
        task.finished = ctx.sim.now
        close_task_span(task)
        ctx.map_durations.append(task.finished - task.scheduled)
        ctx.map_finished(index, node_index, collector, split_scale)

    def _reduce_task(self, ctx: JobContext, partition: int, preferred: int):
        """Coordinator for one logical reduce: same attempt contract as
        maps, started once the engine's reduce gate opens."""
        task = open_task(ctx.timing, f"r{partition}", "reduce", preferred,
                         ctx.sim.now)
        yield self.reduce_gate(ctx)
        _result, node_index = yield from self._run_attempts(
            ctx, task, partition, preferred, True, self.reduce_attempt
        )
        task.node = node_index
        task.finished = ctx.sim.now
        close_task_span(task)

    def _run_attempts(self, ctx: JobContext, task: TaskTiming, index: int,
                      preferred: int, fresh: bool, body):
        """Place, admit, draw the doom, spawn *body* as an attempt of
        *task* and register it; classify its outcome and retry until one
        is ``ok``.  Returns ``(result, node it ran on)``.

        ``task.attempts`` starts at 1, so a *fresh* task's first
        execution is already counted; every other execution adds one.
        """
        sim = ctx.sim
        injector = ctx.injector
        tries = 0  # placements, including ones whose node refused admission
        executions = 0  # attempts actually run; bounds doom injection
        while True:
            tries += 1
            chosen = self.place(ctx, preferred, 0 if tries == 1 else tries,
                                index)
            if not (yield from self.admit(ctx, chosen)):
                continue
            executions += 1
            if not fresh or executions > 1:
                task.attempts += 1
            execution = task.attempts
            doom = None
            if executions < DEFAULT_MAX_TASK_ATTEMPTS:  # the last one always runs clean
                doom = injector.attempt_doom(ctx.job.job_id, task.task_id,
                                             execution)
            proc = sim.spawn(
                body(ctx, task, index, chosen, doom),
                f"{ctx.job.job_id}-{task.task_id}-e{execution}",
            )
            injector.register(chosen, proc)
            result, chosen = yield from self.supervise(
                ctx, task, index, proc, chosen, doom
            )
            outcome = result[0] if isinstance(result, tuple) else "killed"
            if outcome == "ok":
                return result, chosen
            self.record_failure(ctx, chosen)
            if task.span is not None:
                task.span.add_event("attempt-failed", sim.now,
                                    outcome=outcome, node=chosen,
                                    execution=execution)
