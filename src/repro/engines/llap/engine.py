"""The LLAP-style persistent-daemon engine.

Production Hive closed the startup gap the paper attributes to Hadoop
(per-job JVM spawns, heartbeat scheduling) with LLAP: long-lived daemons
on every node that execute query *fragments* inside already-warm
executor threads and keep decoded columnar data resident in a node-local
cache.  This engine models that design on the shared
:class:`~repro.engines.base.EngineRuntime` seam:

* **Daemons, not jobs** — one daemon per worker node, brought up once
  per session (the ``daemon_spawn`` charge is paid exactly once in
  simulated time, not per job).  Daemons hold long-lived leases on their
  node's slots through the ordinary :class:`LeaseManager`, so their
  footprint is visible to the fair-share/capacity ledger exactly like
  any query's tasks; fragments then contend for the daemons' *executor*
  slots per query, which keeps multi-query arbitration working.
* **Fragment execution** — a map or reduce fragment pays only a small
  dispatch latency (``fragment_dispatch``) instead of Hadoop's
  schedule-delay + JVM spawn; map output stays in daemon memory and is
  streamed to reducers over the network with no intermediate disk.
* **Columnar cache** — ORC splits are scanned through the node-local
  :class:`~repro.engines.llap.cache.StripeCache`: a hit skips both the
  simulated disk read and the ORC decode charge for that stripe.  A
  daemon crash invalidates its node's cache (the data died with the
  process) and the daemon is relaunched on demand when the node
  recovers.
* **Fault tolerance** — task-granular, like Hadoop: attempts are doomed
  by the shared :class:`FaultInjector` contract, crash-interrupted
  fragments are retried on surviving nodes, and completed map output
  lost with a daemon is recomputed.

The functional row-processing machinery is the shared code in
:mod:`repro.engines.base`, so results are byte-identical to the other
engines by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.config import Configuration, LLAP_CACHE_MB
from repro.common.kv import Segments
from repro.common.units import MB
from repro.engines.base import (
    EngineRuntime,
    MapOutputCollector,
    TaskTiming,
    TaggedSplit,
    charge_split_read,
    child_span,
    map_cpu_ms,
    pick_node,
    run_map_compute,
    run_reducer_functionally,
)
from repro.engines.lifecycle import JobContext, TaskAttemptEngine
from repro.engines.llap.cache import StripeCache
from repro.obs import get_metrics
from repro.plan.physical import PhysicalPlan
from repro.simulate import CostModel, Interrupt, LeaseOwner
from repro.storage.formats.orc import OrcStoredFile
from repro.storage.hdfs import HDFS

DEFAULT_CACHE_MB = 512.0
RETRY_BACKOFF_SECONDS = 0.5  # wait for a node before re-picking placement


@dataclass
class _ScanOutcome:
    """One fragment's byte bookkeeping through the columnar cache.

    The payload itself comes from
    :func:`~repro.engines.base.run_map_compute` via the stored file's
    ordinary ``scan_batch``, which walks the same stripes, so the cache
    pass only decides which of the scan's bytes were hits."""

    total_bytes: float  # logical bytes the fragment processed
    hit_bytes: float  # served from the node cache (no read, no decode)
    miss_bytes: float  # read + decoded (and inserted)
    orc: bool = False


class _Daemon:
    """One node's resident executor daemon (lifecycle state)."""

    def __init__(self, node_index: int):
        self.node_index = node_index
        self.up = False
        self.launching = False
        self.ready = None  # Event: triggered when up (or bring-up aborted)
        self.stop = None  # Event: parked on while serving
        self.proc = None


class _DaemonFleet:
    """Per-runtime daemon lifecycle: bring-up, leases, crash recovery.

    The *simulated-time* spawn charge is engine-level (daemons persist
    across a session's runtimes); the lease/process state is per runtime
    because each runtime is its own simulated world — the runtime owns
    the fleet (:meth:`EngineRuntime.engine_state`) and closes it.
    """

    def __init__(self, engine: "LlapEngine", runtime: EngineRuntime):
        self.engine = engine
        self.runtime = runtime
        self.sim = runtime.sim
        self.daemon_slots = runtime.model.cluster.slots_per_node
        self.daemons = [
            _Daemon(index) for index in range(len(runtime.cluster.workers))
        ]
        self.exec_slots = runtime.aux_slots("llap.exec", self.daemon_slots, "llapx")
        self.owner = LeaseOwner("llap-daemons", pool="llap")
        self.ready = self.sim.event()
        self.starting = False
        # node-local effect: the decoded cache dies at the physical crash
        # instant, not when the failure detector declares the node dead
        runtime.injector.subscribe_crash(self._on_crash, immediate=True)
        runtime.injector.subscribe_membership(self._on_membership)

    def close(self) -> None:
        self.runtime.injector.unsubscribe_crash(self._on_crash)
        self.runtime.injector.unsubscribe_membership(self._on_membership)

    # -- crash handling -----------------------------------------------------
    def _on_crash(self, worker_index: int) -> None:
        # the decoded data died with the daemon process: drop the node's
        # cache before anything re-reads (the daemon itself is interrupted
        # through its injector registration and releases its leases there)
        dropped = self.engine.invalidate_node_cache(worker_index)
        if dropped:
            get_metrics().counter("llap.cache.invalidations").add(dropped)

    # -- membership ---------------------------------------------------------
    def _on_membership(self, kind: str, worker_index: int) -> None:
        if kind == "join":
            # runtime._grow_aux_slots already appended the exec pool for a
            # brand-new node (cluster join listeners fire first)
            while len(self.daemons) <= worker_index:
                self.daemons.append(_Daemon(len(self.daemons)))
            if self.starting or self.ready.triggered:
                self._launch(worker_index, restart=self.ready.triggered)
        elif kind == "drain":
            self._drain_daemon(worker_index)

    def _drain_daemon(self, worker_index: int) -> None:
        """Retire a draining node's daemon once its executor pool idles:
        running fragments finish, new placements already avoid the node."""
        if worker_index >= len(self.daemons):
            return
        node = self.runtime.cluster.workers[worker_index]
        if not node.draining:
            return  # re-commissioned mid-drain
        daemon = self.daemons[worker_index]
        if not daemon.up:
            return
        if self.exec_slots[worker_index].in_use > 0:
            self.sim.call_at(
                self.sim.now + 0.5, self._drain_daemon, worker_index,
                daemon=True,
            )
            return
        if daemon.stop is not None and not daemon.stop.triggered:
            daemon.stop.trigger(None)

    # -- bring-up -----------------------------------------------------------
    def ensure_started(self):
        """Generator: wait for the fleet.  The bring-up itself runs in a
        fleet-owned process (first caller spawns it), so an interrupted
        caller — a query hitting its deadline mid-bring-up — can never
        wedge the fleet for every other query."""
        if not self.starting and not self.ready.triggered:
            self.starting = True
            self.sim.spawn(self._startup_process(), "llap-fleet-start")
        if not self.ready.triggered:
            yield self.ready

    def _startup_process(self):
        charge = not self.engine._daemons_started
        self.engine._daemons_started = True
        if charge:
            yield self.sim.timeout(self.runtime.model.llap.daemon_spawn)
        waits = []
        for index in self.runtime.injector.schedulable_worker_indices():
            waits.append(self._launch(index, restart=False))
        for event in waits:
            yield event
        if not self.ready.triggered:
            self.ready.trigger(None)

    def _launch(self, index: int, restart: bool):
        daemon = self.daemons[index]
        if daemon.up or daemon.launching:
            return daemon.ready
        daemon.launching = True
        daemon.ready = self.sim.event()
        daemon.stop = self.sim.event()
        daemon.proc = self.sim.spawn(
            self._daemon_process(daemon, restart), f"llap-daemon-w{index}"
        )
        return daemon.ready

    def ensure_daemon(self, index: int):
        """Generator: wait for node *index*'s daemon, relaunching it if
        the node recovered from a crash.  Returns True when the daemon is
        serving, False when the node is (still) dead."""
        daemon = self.daemons[index]
        while not daemon.up:
            if not self.runtime.injector.node_schedulable(index):
                return False  # dead — or draining: don't fight the drain
            yield self._launch(index, restart=self.ready.triggered)
        return True

    def _daemon_process(self, daemon: _Daemon, restart: bool):
        """The resident daemon: holds its node-slot leases and heap for
        the life of the runtime (or until its node crashes)."""
        runtime = self.runtime
        node = runtime.cluster.workers[daemon.node_index]
        leases = runtime.leases
        injector = runtime.injector
        heap = 0.0
        acquired = []
        held = 0
        try:
            injector.register(daemon.node_index, daemon.proc)
            if restart:
                yield self.sim.timeout(runtime.model.llap.daemon_restart)
                get_metrics().counter("llap.daemons.restarted").add(1)
            acquired = [
                leases.acquire(node.slots, self.owner)
                for _ in range(self.daemon_slots)
            ]
            for event in acquired:
                yield event
                held += 1
            heap = runtime.model.cluster.heap_per_task * self.daemon_slots
            node.memory.allocate(heap)
            daemon.up = True
            daemon.launching = False
            if not daemon.ready.triggered:
                daemon.ready.trigger(None)
            yield daemon.stop  # parked until the node dies
        except Interrupt:
            pass
        finally:
            daemon.up = False
            daemon.launching = False
            if heap:
                node.memory.free(heap)
            for position, event in enumerate(acquired):
                if position < held:
                    leases.release(node.slots, self.owner)
                else:
                    leases.cancel(node.slots, event, self.owner)
            injector.unregister(daemon.node_index, daemon.proc)
            if not daemon.ready.triggered:
                daemon.ready.trigger(None)  # unblock waiters; they re-check


class _LlapJob(JobContext):
    """A job's context plus the daemon fleet its fragments run in."""

    def __init__(self, engine: "LlapEngine", runtime: EngineRuntime, job,
                 conf: Configuration, is_last: bool,
                 owner: Optional[LeaseOwner], fleet: _DaemonFleet):
        super().__init__(engine, runtime, job, conf, is_last, owner)
        self.fleet = fleet


class LlapEngine(TaskAttemptEngine):
    name = "llap"
    aliases = ("live",)
    result_cache = True
    degrades_to = "hadoop"

    def __init__(self, hdfs: HDFS, model: Optional[CostModel] = None):
        super().__init__(hdfs, model)
        # daemon memory persists across runtimes (that is the point):
        # per-node stripe caches and the once-per-session spawn charge
        self._caches: Dict[int, StripeCache] = {}
        self._cache_mb = DEFAULT_CACHE_MB
        self._daemons_started = False

    # -- cache surface ------------------------------------------------------
    def node_cache(self, index: int) -> StripeCache:
        cache = self._caches.get(index)
        if cache is None:
            cache = StripeCache(f"w{index}", self._cache_mb * MB)
            self._caches[index] = cache
        return cache

    def invalidate_node_cache(self, index: int) -> int:
        cache = self._caches.get(index)
        if cache is None:
            return 0
        return cache.invalidate()

    def cache_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-daemon columnar-cache counters (``Session.caches()``)."""
        return {
            cache.node_name: cache.stats()
            for _index, cache in sorted(self._caches.items())
        }

    # -- public API ---------------------------------------------------------
    def plan_process(
        self,
        runtime: EngineRuntime,
        plan: PhysicalPlan,
        conf: Optional[Configuration] = None,
        owner: Optional[LeaseOwner] = None,
    ):
        conf = conf or Configuration()
        self._cache_mb = conf.get_float(LLAP_CACHE_MB, DEFAULT_CACHE_MB)
        fleet = runtime.engine_state(
            "llap.fleet", lambda: _DaemonFleet(self, runtime)
        )
        yield from fleet.ensure_started()
        timings = []
        for index, job in enumerate(plan.jobs):
            ctx = _LlapJob(self, runtime, job, conf,
                           index == len(plan.jobs) - 1, owner, fleet)
            timings.append((yield from self.run_job(ctx)))
        return timings

    # -- lifecycle policy (see TaskAttemptEngine) ------------------------------
    def place(self, ctx: _LlapJob, preferred: int, salt: int,
              index: int) -> int:
        return pick_node(ctx.cluster, preferred, salt, spread=index)

    def admit(self, ctx: _LlapJob, node_index: int):
        """An attempt needs a serving daemon.  When the chosen node died
        during daemon bring-up, wait out the blip and place elsewhere."""
        serving = yield from ctx.fleet.ensure_daemon(node_index)
        if not serving:
            yield ctx.sim.timeout(RETRY_BACKOFF_SECONDS)
        return serving

    def reduce_gate(self, ctx: _LlapJob):
        return ctx.all_maps_event  # LLAP streams once the map side is done

    # -- columnar cache scan -------------------------------------------------
    def _cached_scan(self, tagged: TaggedSplit, node_index: int) -> _ScanOutcome:
        """Pass an ORC split through node *node_index*'s stripe cache.

        The stripes are the ones the split's scan reads
        (``OrcStoredFile.walk_stripes``, the walk every scan takes), so
        the hit/miss split covers exactly the bytes the scan charges; a
        stripe its stats skip never reaches the cache, and only the hit
        portion of the charge is dropped.  Non-ORC formats never come
        here — they have no stripe structure to cache, so every byte is
        a miss and the charge comes straight from the compute outcome.
        """
        stored = tagged.split.stored
        cache = self.node_cache(node_index)
        split = tagged.split
        hints = tagged.map_input.hints
        columns = hints.columns
        scale = split.scale
        reads, _skipped = stored.walk_stripes(
            split.row_start, split.row_count, columns,
            hints.stats_conjuncts or None,
        )
        hit = 0.0
        miss = 0.0
        for read in reads:
            nbytes = read.charge * scale
            key = stored.stripe_cache_key(split.path, read.index, columns)
            decoded = cache.lookup(key, stored, nbytes)
            if decoded is None:
                decoded = stored.decoded_stripe_columns(read.index)
                cache.insert(
                    key, stored,
                    stored.stripes[read.index].bytes_for_columns(columns) * scale,
                    decoded,
                )
                miss += nbytes
            else:
                hit += nbytes
        return _ScanOutcome(hit + miss, hit, miss, orc=True)

    # -- map attempt ---------------------------------------------------------
    def map_attempt(self, ctx: _LlapJob, task: TaskTiming, index: int,
                    node_index: int, doom: Optional[float]):
        """One map attempt inside node *node_index*'s daemon."""
        sim = ctx.sim
        cluster = ctx.cluster
        job = ctx.job
        cpu = ctx.model.cpu
        tagged = ctx.splits[index]
        node = cluster.workers[node_index]
        hold = ctx.hold(ctx.fleet.exec_slots[node_index])
        try:
            yield from hold.take()
            yield sim.timeout(ctx.model.llap.fragment_dispatch)
            ctx.started(task)

            orc = isinstance(tagged.split.stored, OrcStoredFile)
            scan = None
            if orc:
                cache = self.node_cache(node_index)
                before = (cache.hits, cache.misses, cache.evictions)
                scan = self._cached_scan(tagged, node_index)
                hit_delta = cache.hits - before[0]
                miss_delta = cache.misses - before[1]
                evict_delta = cache.evictions - before[2]
                metrics = get_metrics()
                if hit_delta:
                    metrics.counter("llap.cache.hits").add(hit_delta)
                    metrics.counter("llap.cache.hit.bytes").add(scan.hit_bytes)
                if miss_delta:
                    metrics.counter("llap.cache.misses").add(miss_delta)
                    metrics.counter("llap.cache.miss.bytes").add(scan.miss_bytes)
                if evict_delta:
                    metrics.counter("llap.cache.evictions").add(evict_delta)
                if task.span is not None:
                    task.span.add_event(
                        "columnar-cache", sim.now,
                        hits=hit_delta, misses=miss_delta,
                        hit_bytes=scan.hit_bytes, miss_bytes=scan.miss_bytes,
                    )

            if doom is not None:
                # a cached stripe costs no read, but its rows still burn
                if orc:
                    yield from ctx.burn_doomed(node_index, tagged, doom,
                                               scan.miss_bytes, scan.total_bytes)
                else:
                    yield from ctx.burn_doomed(node_index, tagged, doom)
                return ("failed", "injected")

            # the whole fragment is one batch with no mid-task accounting;
            # the cache pass above already split the byte charge into hits
            # and misses
            collector = MapOutputCollector(ctx.num_reducers)
            bytes_to_read, _records, result = run_map_compute(
                tagged, collector, num_partitions=ctx.num_reducers,
                small_tables=ctx.small_tables, map_only=job.is_map_only,
            )
            total_bytes = scan.total_bytes if orc else bytes_to_read
            miss_bytes = scan.miss_bytes if orc else bytes_to_read

            # cache misses hit the disk (or a replica over the wire) and
            # pay the decode rate; hits cost neither
            yield from charge_split_read(cluster, node, node_index, tagged,
                                         miss_bytes)
            cpu_ms = map_cpu_ms(cpu, tagged, total_bytes, miss_bytes)
            yield from node.compute(cpu_ms / 1000.0)
            task.collect_samples.append((sim.now, collector.total_bytes))

            if job.is_map_only and not (
                yield from ctx.commit(task, index, result.output, node_index)
            ):
                return ("lost-race", None)
            return ("ok", collector, result)
        except Interrupt as interrupt:
            return ("killed", interrupt.cause)
        finally:
            hold.give_back()

    # -- reduce attempt ------------------------------------------------------
    def reduce_attempt(self, ctx: _LlapJob, task: TaskTiming, partition: int,
                       node_index: int, doom: Optional[float]):
        sim = ctx.sim
        cluster = ctx.cluster
        node = cluster.workers[node_index]
        hold = ctx.hold(ctx.fleet.exec_slots[node_index])
        try:
            yield from hold.take()
            yield sim.timeout(ctx.model.llap.fragment_dispatch)
            task.started = sim.now

            # stream every map's partition straight out of daemon memory:
            # network only (no source disk read, no spill files).  A map
            # a crash invalidated mid-stream re-runs in an executor slot
            # — possibly of this very pool — so the wait for it hands
            # ours back instead of deadlocking the daemon.
            shuffle_span = child_span(task, "shuffle", sim.now, node=node_index)

            def transfer(source_index: int, chunk: float):
                if source_index != node_index:
                    yield from cluster.network_transfer(
                        cluster.workers[source_index], node, chunk
                    )

            copied = 0.0
            pairs = Segments()
            for map_index in range(ctx.num_maps):
                segments, chunk = yield from ctx.pull_map_output(
                    map_index, partition, transfer, hold=hold
                )
                pairs.extend(segments)
                copied += chunk
            ctx.last_copy_done = max(ctx.last_copy_done, sim.now)
            task.kv_bytes = copied
            shuffle_span.finish(sim.now, bytes=copied, maps=ctx.num_maps)

            if doom is not None:
                return ("failed", "injected")
            if not (yield from ctx.reduce_tail(
                task, partition, node_index, copied, pairs,
                run_reducer_functionally,
            )):
                return ("lost-race", None)
            return ("ok",)
        except Interrupt as interrupt:
            return ("killed", interrupt.cause)
        finally:
            hold.give_back()
