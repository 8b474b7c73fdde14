"""Declarative, seeded fault injection for the cluster simulation.

The paper's central trade-off (§I, §VI) is that Hive-on-MapReduce
tolerates faults at task granularity while the MPI substrate buys speed
with gang-failure semantics.  This module makes that trade-off
mechanical instead of modeled: a :class:`FaultPlan` declares *what goes
wrong and when*, and a :class:`FaultInjector` delivers it through the
event kernel — crashing nodes interrupt every registered task process
mid-flight (via :meth:`repro.simulate.events.Process.interrupt`),
degradation windows change link rates, stragglers slow a node's CPU —
so recovery is something the engines actually have to *do* (release
slots, free memory, discard partial output, re-execute), not a sleep
penalty.

Fault-plan grammar (the value of ``repro.faults``; on the CLI
``--set 'repro.faults=...'``), clauses separated by ``;``::

    seed:7                     # seed for every probabilistic draw
    fail:0.05                  # per-attempt task failure probability
    crash:w2@40                # worker 2 dies at t=40s, stays dead
    crash:w2@40-90             # ... and recovers at t=90s
    slow:w3x4@10-200           # worker 3 CPU runs 4x slower in [10,200)
    slow:w3x4@10               # ... from t=10s onward
    disk:w1x0.25@5-60          # worker 1 disk at 25% rate in [5,60)
    nic:w4x0.5@0-100           # worker 4 NIC (both directions) at 50%
    scale-up:w7@30             # a new (or re-commissioned) worker joins at t=30
    drain:w3@50                # worker 3 decommissions gracefully from t=50

Worker indices are 0-based positions in ``cluster.workers`` (the paper's
testbed: workers 0..6 behind master node0).  Every draw derives its RNG
from ``(seed, job, task, attempt)`` via :mod:`repro.common.rng`, so runs
are deterministic and independent of event ordering.

When a plan is active the injector also runs a :class:`HeartbeatMonitor`
in simulated time: workers beat every ``HEARTBEAT_INTERVAL`` seconds,
silence beyond ``HEARTBEAT_SUSPECT`` marks a node *suspected*, silence
beyond ``HEARTBEAT_TIMEOUT`` *declares* it dead and only then notifies
deferred crash subscribers — so engines learn about remote node loss
with realistic detection latency instead of an oracle callback.  A
straggling node beats late (every ``HEARTBEAT_INTERVAL x slowdown``
seconds), so heavy slowdowns cause transient false suspicions that clear
when the late beat lands.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.config import FAULT_SPEC
from repro.common.errors import ConfigError
from repro.common.rng import derive_rng
from repro.simulate.cluster import Cluster
from repro.simulate.events import Process, Simulator

HEARTBEAT_INTERVAL = 1.0  # simulated seconds between beats
HEARTBEAT_SUSPECT = 3.0  # silence before a node is suspected
HEARTBEAT_TIMEOUT = 10.0  # silence before a node is declared dead


@dataclass(frozen=True)
class NodeCrash:
    """Worker *worker* dies at *at*; optionally rejoins at *recover_at*."""

    worker: int
    at: float
    recover_at: Optional[float] = None

    def __post_init__(self):
        if self.at < 0:
            raise ConfigError(f"crash time must be >= 0: {self.at}")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ConfigError(
                f"recovery ({self.recover_at}) must follow the crash ({self.at})"
            )


@dataclass(frozen=True)
class Degradation:
    """Worker *worker*'s *resource* ("disk" or "nic") runs at
    ``factor`` x nominal rate during [start, end)."""

    worker: int
    resource: str
    factor: float
    start: float
    end: Optional[float] = None

    def __post_init__(self):
        if self.resource not in ("disk", "nic"):
            raise ConfigError(f"unknown degraded resource: {self.resource!r}")
        if not 0 < self.factor <= 1:
            raise ConfigError(f"degradation factor must be in (0,1]: {self.factor}")
        if self.end is not None and self.end <= self.start:
            raise ConfigError("degradation window must have end > start")


@dataclass(frozen=True)
class Straggler:
    """Worker *worker*'s CPU runs *factor* x slower during [start, end)."""

    worker: int
    factor: float
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self):
        if self.factor < 1:
            raise ConfigError(f"straggler factor must be >= 1: {self.factor}")
        if self.end is not None and self.end <= self.start:
            raise ConfigError("straggler window must have end > start")


@dataclass(frozen=True)
class ScaleUp:
    """A worker joins the cluster at *at* (elastic scale-up).

    *worker* is the index the new node is expected to occupy; when it
    names an existing drained worker, that node is re-commissioned
    instead of growing the cluster.
    """

    worker: int
    at: float

    def __post_init__(self):
        if self.at < 0:
            raise ConfigError(f"scale-up time must be >= 0: {self.at}")


@dataclass(frozen=True)
class Drain:
    """Worker *worker* starts a graceful decommission at *at*: no new
    placements, running work finishes, then slots/daemons retire."""

    worker: int
    at: float

    def __post_init__(self):
        if self.at < 0:
            raise ConfigError(f"drain time must be >= 0: {self.at}")


_CLAUSE = re.compile(
    r"""^(?P<kind>scale-up|drain|crash|slow|disk|nic)
         :w(?P<worker>\d+)
         (?:x(?P<factor>[0-9.]+))?
         @(?P<start>[0-9.]+)
         (?:-(?P<end>[0-9.]+))?$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, declared up front."""

    seed: int = 0
    task_failure_rate: float = 0.0
    node_crashes: Tuple[NodeCrash, ...] = ()
    degradations: Tuple[Degradation, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    scale_ups: Tuple[ScaleUp, ...] = ()
    drains: Tuple[Drain, ...] = ()

    def __post_init__(self):
        if not 0 <= self.task_failure_rate < 1:
            raise ConfigError(
                f"task failure rate must be in [0,1): {self.task_failure_rate}"
            )
        self._reject_overlapping_windows()

    def _reject_overlapping_windows(self) -> None:
        """Two windows of the same fault kind on the same worker whose
        intervals intersect leave the injector in an undefined state
        (who recovers the node first?), so the plan is rejected up
        front with a clear error instead."""
        infinity = float("inf")
        grouped: Dict[Tuple[str, object], List[Tuple[float, float]]] = {}
        for crash in self.node_crashes:
            grouped.setdefault(("crash", crash.worker), []).append(
                (crash.at, crash.recover_at if crash.recover_at is not None
                 else infinity))
        for straggler in self.stragglers:
            grouped.setdefault(("slow", straggler.worker), []).append(
                (straggler.start, straggler.end if straggler.end is not None
                 else infinity))
        for window in self.degradations:
            grouped.setdefault((window.resource, window.worker), []).append(
                (window.start, window.end if window.end is not None
                 else infinity))
        for (kind, worker), spans in grouped.items():
            spans.sort()
            for (start1, end1), (start2, _end2) in zip(spans, spans[1:]):
                if end1 > start2:
                    until = "inf" if end1 == infinity else f"{end1:g}"
                    raise ConfigError(
                        f"overlapping {kind} windows for worker {worker}: "
                        f"[{start1:g}, {until}) intersects the window "
                        f"starting at {start2:g}"
                    )

    @property
    def empty(self) -> bool:
        return (
            self.task_failure_rate == 0.0
            and not self.node_crashes
            and not self.degradations
            and not self.stragglers
            and not self.scale_ups
            and not self.drains
        )

    # -- construction ---------------------------------------------------------
    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse the clause grammar documented at module top."""
        seed = 0
        task_failure_rate = 0.0
        crashes: List[NodeCrash] = []
        degradations: List[Degradation] = []
        stragglers: List[Straggler] = []
        scale_ups: List[ScaleUp] = []
        drains: List[Drain] = []
        for raw in re.split(r"[;\n]", spec or ""):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed:"):
                seed = int(clause[len("seed:"):])
                continue
            if clause.startswith("fail:"):
                task_failure_rate = float(clause[len("fail:"):])
                continue
            match = _CLAUSE.match(clause)
            if match is None:
                raise ConfigError(f"unparseable fault clause: {clause!r}")
            kind = match.group("kind")
            worker = int(match.group("worker"))
            factor = match.group("factor")
            start = float(match.group("start"))
            end = float(match.group("end")) if match.group("end") else None
            if kind in ("scale-up", "drain"):
                if factor is not None:
                    raise ConfigError(f"{kind} takes no factor: {clause!r}")
                if end is not None:
                    raise ConfigError(
                        f"{kind} takes a single time, not a window: {clause!r}"
                    )
                if kind == "scale-up":
                    scale_ups.append(ScaleUp(worker, start))
                else:
                    drains.append(Drain(worker, start))
            elif kind == "crash":
                if factor is not None:
                    raise ConfigError(f"crash takes no factor: {clause!r}")
                crashes.append(NodeCrash(worker, start, recover_at=end))
            elif kind == "slow":
                if factor is None:
                    raise ConfigError(f"slow needs a factor: {clause!r}")
                stragglers.append(Straggler(worker, float(factor), start, end))
            else:  # disk | nic
                if factor is None:
                    raise ConfigError(f"{kind} needs a factor: {clause!r}")
                degradations.append(
                    Degradation(worker, kind, float(factor), start, end)
                )
        return FaultPlan(
            seed=seed,
            task_failure_rate=task_failure_rate,
            node_crashes=tuple(crashes),
            degradations=tuple(degradations),
            stragglers=tuple(stragglers),
            scale_ups=tuple(scale_ups),
            drains=tuple(drains),
        )

    @staticmethod
    def from_conf(conf) -> "FaultPlan":
        """Build the plan a session asked for from ``repro.faults``."""
        return FaultPlan.parse(conf.get(FAULT_SPEC, "") or "")


@dataclass
class FaultEvent:
    """One fault the injector actually delivered (for ``QueryResult``)."""

    time: float
    kind: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out = {"time": self.time, "kind": self.kind}
        out.update(self.detail)
        return out


class HeartbeatMonitor:
    """Failure detection through missed heartbeats, in simulated time.

    Every worker conceptually sends a beat each ``HEARTBEAT_INTERVAL``
    seconds; a straggling node (CPU slowdown ``F``) beats every
    ``HEARTBEAT_INTERVAL x F`` seconds, and a dead node stops beating at
    the crash instant.  The
    monitor ticks once per interval (daemon callbacks only — it never
    keeps the simulation alive) and walks workers through the
    suspicion state machine:

    * silence >= ``HEARTBEAT_SUSPECT`` -> *suspected* (``node-suspect``)
    * silence >= ``HEARTBEAT_TIMEOUT`` -> *declared dead*
      (``node-dead-declared``) — only now are deferred crash
      subscribers notified, so remote recovery (lost-map re-execution,
      gang teardown for non-resident nodes) pays detection latency;
    * a late beat clears a suspicion (``suspect-cleared``) without a
      death declaration — the false-suspicion path heavy stragglers
      exercise;
    * beats resuming after a declaration (crash window ended) record
      ``node-rejoin`` and re-arm detection.
    """

    def __init__(self, injector: "FaultInjector"):
        self.injector = injector
        self.sim = injector.sim
        self._last_beat: Dict[int, float] = {}
        self._suspected: Set[int] = set()
        self._declared: Set[int] = set()
        self._started = False

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(len(self.injector.cluster.workers)):
            self._last_beat[index] = self.sim.now
        self.sim.call_at(self.sim.now + HEARTBEAT_INTERVAL, self._tick, daemon=True)

    def track(self, worker_index: int) -> None:
        """Start watching a worker that joined after :meth:`start`."""
        self._last_beat.setdefault(worker_index, self.sim.now)

    def _tick(self) -> None:
        now = self.sim.now
        for index, node in enumerate(self.injector.cluster.workers):
            last = self._last_beat.get(index, now)
            if node.alive:
                # credit the newest beat that would have arrived by now;
                # a straggler's beats are spaced interval x slowdown
                gap = HEARTBEAT_INTERVAL * max(1.0, node.slowdown)
                if now - last >= gap:
                    last += math.floor((now - last) / gap) * gap
                    self._last_beat[index] = last
            silence = now - last
            if index in self._declared:
                if silence < HEARTBEAT_SUSPECT:
                    self._declared.discard(index)
                    self._suspected.discard(index)
                    self.injector._record("node-rejoin", worker=index)
                continue
            if silence >= HEARTBEAT_TIMEOUT:
                self._suspected.discard(index)
                self._declared.add(index)
                self.injector._record(
                    "node-dead-declared", worker=index,
                    silence=round(silence, 3),
                )
                self.injector._notify_deferred(index)
            elif silence >= HEARTBEAT_SUSPECT:
                if index not in self._suspected:
                    self._suspected.add(index)
                    self.injector._record(
                        "node-suspect", worker=index,
                        silence=round(silence, 3),
                    )
            elif index in self._suspected:
                self._suspected.discard(index)
                self.injector._record("suspect-cleared", worker=index)
        self.sim.call_at(now + HEARTBEAT_INTERVAL, self._tick, daemon=True)


class FaultInjector:
    """Delivers a :class:`FaultPlan` into a live simulation.

    The engines cooperate through a small contract:

    * every task attempt **registers** its :class:`Process` under the
      worker index it runs on (and unregisters on exit) so a crash can
      interrupt exactly the work that was on the dead machine;
    * scheduling consults :meth:`node_alive` and skips dead nodes;
    * probabilistic per-attempt failures come from :meth:`attempt_doom`,
      whose draws are seeded per (job, task, attempt) and therefore
      identical across runs and engines;
    * engines may :meth:`subscribe_crash` to learn about node loss even
      when nothing of theirs was running there (the Hadoop job tracker
      uses this to invalidate completed map output on the dead node).
      Default subscriptions are *deferred*: when the heartbeat monitor
      runs, they fire at dead-declaration time, not the physical crash
      instant.  ``immediate=True`` opts into crash-instant delivery for
      strictly node-local physical effects (cache memory vanishing with
      its node);
    * engines may :meth:`subscribe_membership` to react to elastic
      ``join`` / ``drain`` / ``drained`` transitions (the LLAP fleet
      spawns and retires daemons through this).

    All agenda entries are daemon callbacks: an injector never keeps the
    simulation alive on its own.
    """

    #: seconds between graceful-drain completion checks
    DRAIN_POLL_SECONDS = 0.5

    def __init__(self, sim: Simulator, cluster: Cluster, plan: FaultPlan,
                 tracer=None, metrics=None, heartbeat: bool = True):
        self.sim = sim
        self.cluster = cluster
        self.plan = plan
        self.tracer = tracer
        self.metrics = metrics
        self.events: List[FaultEvent] = []
        self.span = None
        self.monitor: Optional[HeartbeatMonitor] = None
        self._heartbeat = heartbeat
        # insertion-ordered on purpose: crash delivery iterates this, and
        # a set's address-dependent order would make replays diverge
        self._registered: Dict[int, Dict[Process, None]] = {}
        self._immediate_subscribers: List[Callable[[int], None]] = []
        self._deferred_subscribers: List[Callable[[int], None]] = []
        self._membership_subscribers: List[Callable[[str, int], None]] = []
        self._started = False

    @property
    def active(self) -> bool:
        """True when this run has any faults or membership changes — the
        gate for optional bookkeeping (rank registration, monitors) that
        must not perturb byte-identical clean runs."""
        return not self.plan.empty

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Schedule every planned fault on the simulator agenda."""
        if self._started:
            return
        self._started = True
        if self.plan.empty:
            return
        if self.tracer is not None:
            self.span = self.tracer.start(
                "faults", start=self.sim.now, category="faults"
            )
        for crash in self.plan.node_crashes:
            self.sim.call_at(crash.at, self._crash, crash.worker, daemon=True)
            if crash.recover_at is not None:
                self.sim.call_at(
                    crash.recover_at, self._recover, crash.worker, daemon=True
                )
        for window in self.plan.degradations:
            self.sim.call_at(
                window.start, self._degrade, window, True, daemon=True
            )
            if window.end is not None:
                self.sim.call_at(
                    window.end, self._degrade, window, False, daemon=True
                )
        for straggler in self.plan.stragglers:
            self.sim.call_at(
                straggler.start, self._slowdown, straggler.worker,
                straggler.factor, daemon=True,
            )
            if straggler.end is not None:
                self.sim.call_at(
                    straggler.end, self._slowdown, straggler.worker, 1.0,
                    daemon=True,
                )
        for scale_up in self.plan.scale_ups:
            self.sim.call_at(
                scale_up.at, self._scale_up, scale_up.worker, daemon=True
            )
        for drain in self.plan.drains:
            self.sim.call_at(drain.at, self._drain, drain.worker, daemon=True)
        if self._heartbeat:
            self.monitor = HeartbeatMonitor(self)
            self.monitor.start()
        self._refresh_alive_gauge()

    def close(self) -> None:
        if self.span is not None and not self.span.closed:
            self.span.finish(self.sim.now, faults=len(self.events))

    # -- engine contract ------------------------------------------------------
    def node_alive(self, worker_index: int) -> bool:
        return self.cluster.workers[worker_index % len(self.cluster.workers)].alive

    def node_schedulable(self, worker_index: int) -> bool:
        """Placement check: alive *and* not draining."""
        workers = self.cluster.workers
        return workers[worker_index % len(workers)].schedulable

    def live_worker_indices(self) -> List[int]:
        return [
            index for index, node in enumerate(self.cluster.workers) if node.alive
        ]

    def schedulable_worker_indices(self) -> List[int]:
        return [
            index for index, node in enumerate(self.cluster.workers)
            if node.schedulable
        ]

    def register(self, worker_index: int, process: Process) -> None:
        self._registered.setdefault(worker_index, {})[process] = None

    def unregister(self, worker_index: int, process: Process) -> None:
        self._registered.get(worker_index, {}).pop(process, None)

    def subscribe_crash(self, callback: Callable[[int], None],
                        immediate: bool = False) -> None:
        """Hear about node loss.  Deferred (default) subscribers are
        notified when the heartbeat monitor declares the node dead —
        or at the crash instant when no monitor runs.  Immediate
        subscribers always fire at the physical crash instant; reserve
        that for effects local to the dead machine itself."""
        if immediate:
            self._immediate_subscribers.append(callback)
        else:
            self._deferred_subscribers.append(callback)

    def unsubscribe_crash(self, callback: Callable[[int], None]) -> None:
        if callback in self._immediate_subscribers:
            self._immediate_subscribers.remove(callback)
        if callback in self._deferred_subscribers:
            self._deferred_subscribers.remove(callback)

    def subscribe_membership(self, callback: Callable[[str, int], None]) -> None:
        """Hear about elastic membership: *callback(kind, worker_index)*
        with kind ``"join"`` (node commissioned), ``"drain"``
        (decommission started) or ``"drained"`` (decommission done)."""
        self._membership_subscribers.append(callback)

    def unsubscribe_membership(self, callback: Callable[[str, int], None]) -> None:
        if callback in self._membership_subscribers:
            self._membership_subscribers.remove(callback)

    def attempt_doom(self, job_id: str, task_id: str, attempt: int) -> Optional[float]:
        """Decide whether this attempt fails part-way through.

        Returns the fraction of the attempt's work after which it dies,
        or ``None`` for a clean run.  Seeded per (job, task, attempt):
        the same plan always dooms the same attempts at the same points,
        independent of scheduling order.  Callers must not consult this
        for a task's final permitted attempt — recovery has to converge.
        """
        rate = self.plan.task_failure_rate
        if rate <= 0:
            return None
        rng = derive_rng(self.plan.seed, "attempt-doom", job_id, task_id, attempt)
        if rng.random() >= rate:
            return None
        return 0.05 + 0.90 * rng.random()

    # -- fault delivery -------------------------------------------------------
    def _record(self, kind: str, **detail) -> None:
        event = FaultEvent(self.sim.now, kind, dict(detail))
        self.events.append(event)
        if self.span is not None:
            self.span.add_event(kind, self.sim.now, **detail)
        if self.metrics is not None:
            self.metrics.counter("cluster.faults.injected").add(1)

    def _refresh_alive_gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("cluster.nodes.alive").set(
                len(self.live_worker_indices())
            )

    def _crash(self, worker_index: int) -> None:
        node = self.cluster.workers[worker_index % len(self.cluster.workers)]
        if not node.alive:
            return
        node.alive = False
        self._record("node-crash", worker=worker_index, node=node.name)
        if self.metrics is not None:
            self.metrics.counter("cluster.node.crashes").add(1)
        self._refresh_alive_gauge()
        # interrupt everything running there — the attempt bodies own the
        # cleanup (slots, memory, partial output)
        doomed = list(self._registered.get(worker_index, ()))
        self._registered[worker_index] = {}
        for process in doomed:
            process.interrupt(cause=("node-crash", worker_index))
        for callback in list(self._immediate_subscribers):
            callback(worker_index)
        if self.monitor is None:
            # no failure detector: fall back to oracle-instant delivery
            self._notify_deferred(worker_index)

    def _notify_deferred(self, worker_index: int) -> None:
        for callback in list(self._deferred_subscribers):
            callback(worker_index)

    def _notify_membership(self, kind: str, worker_index: int) -> None:
        for callback in list(self._membership_subscribers):
            callback(kind, worker_index)

    def _scale_up(self, worker_hint: int) -> None:
        workers = self.cluster.workers
        if worker_hint < len(workers):
            # re-commission an existing (typically drained) worker
            node = workers[worker_hint]
            index = worker_hint
            if node.schedulable:
                return
            node.draining = False
            if not node.alive:
                node.alive = True
            self._record("node-join", worker=index, node=node.name,
                         rejoin=True)
        else:
            node = self.cluster.add_node()
            index = len(self.cluster.workers) - 1
            if self.monitor is not None:
                self.monitor.track(index)
            self._record("node-join", worker=index, node=node.name,
                         rejoin=False)
        if self.metrics is not None:
            self.metrics.counter("cluster.nodes.joined").add(1)
        self._refresh_alive_gauge()
        self._notify_membership("join", index)

    def _drain(self, worker_index: int) -> None:
        workers = self.cluster.workers
        if worker_index >= len(workers):
            return
        node = workers[worker_index]
        if node.draining or not node.alive:
            return
        node.draining = True
        self._record("drain-start", worker=worker_index, node=node.name)
        if self.metrics is not None:
            self.metrics.counter("cluster.nodes.draining").add(1)
        self._notify_membership("drain", worker_index)
        self.sim.call_at(
            self.sim.now + self.DRAIN_POLL_SECONDS, self._drain_poll,
            worker_index, daemon=True,
        )

    def _drain_poll(self, worker_index: int) -> None:
        node = self.cluster.workers[worker_index]
        if not node.draining:
            return  # re-commissioned by a scale-up mid-drain
        if self._registered.get(worker_index) or node.slots.in_use > 0:
            self.sim.call_at(
                self.sim.now + self.DRAIN_POLL_SECONDS, self._drain_poll,
                worker_index, daemon=True,
            )
            return
        self._record("node-drained", worker=worker_index, node=node.name)
        self._notify_membership("drained", worker_index)

    def _recover(self, worker_index: int) -> None:
        node = self.cluster.workers[worker_index % len(self.cluster.workers)]
        if node.alive:
            return
        node.alive = True
        self._record("node-recover", worker=worker_index, node=node.name)
        self._refresh_alive_gauge()

    def _degrade(self, window: Degradation, begin: bool) -> None:
        node = self.cluster.workers[window.worker % len(self.cluster.workers)]
        factor = window.factor if begin else 1.0
        if window.resource == "disk":
            node.disk.set_rate(self.cluster.spec.disk_bandwidth * factor)
        else:
            node.nic_tx.set_rate(self.cluster.spec.nic_bandwidth * factor)
            node.nic_rx.set_rate(self.cluster.spec.nic_bandwidth * factor)
        self._record(
            "degrade-start" if begin else "degrade-end",
            worker=window.worker, resource=window.resource, factor=factor,
        )

    def _slowdown(self, worker_index: int, factor: float) -> None:
        node = self.cluster.workers[worker_index % len(self.cluster.workers)]
        node.slowdown = factor
        self._record(
            "straggle-start" if factor > 1.0 else "straggle-end",
            worker=worker_index, factor=factor,
        )
