"""Seeded chaos harness: randomized fault + membership schedules with
global invariants.

The harness closes the loop on the fault model: instead of hand-written
fault specs, :func:`generate_schedule` derives a randomized — but fully
seeded, hence replayable — mix of crash windows, stragglers, drains and
scale-ups, runs a fixed query workload under it, and checks four
invariants that must hold no matter what the schedule did:

1. **Correctness** — every query that completes returns exactly the
   rows of a fault-free oracle run on a pristine copy of the same
   warehouse (row-set equality: a degraded run may fall back to another
   engine whose output order differs, but the multiset of rows must
   not).
2. **No lost slots** — the :class:`~repro.simulate.leases.LeaseLedger`
   shows no pool oversubscription, no release-before-grant, and no
   query owner still holding slots after the drain (long-lived owners —
   the parked LLAP daemons and the anonymous solo owner — are exempt by
   design: the runtime parks them holding their node slots).
3. **Cache coherence** — re-running a workload query after the chaos
   run returns oracle rows (a stale cache entry surviving an
   invalidation would surface here).
4. **Liveness** — every submitted query reaches a terminal state; a
   handle stuck forever means a lost wakeup.

Replay determinism is checked separately by :func:`verify_replay`:
running the same (engine, seed) twice must produce identical reports.

The module is deliberately *not* imported by ``repro.simulate`` — it
sits above the session layer (it builds warehouses and drives
schedulers), so the session import happens lazily inside functions.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import (
    FAULT_SPEC,
    QUERY_DEADLINE,
    SCHED_MAX_CONCURRENT,
)
from repro.common.errors import ExecutionError, QueryTimeoutError
from repro.simulate.faults import FaultPlan
from repro.simulate.leases import LeaseLedger

#: Lease owners that legitimately hold slots past the end of a run: the
#: persistent LLAP daemons park on their node slots by design, and the
#: anonymous owner covers solo (non-scheduler) statements.
LONG_LIVED_OWNERS = ("llap-daemons", "-")

#: The fixed chaos workload.  Only order-independent aggregates (count,
#: max) so rows stay comparable when a query degrades to a fallback
#: engine; the last query repeats the first to exercise the result
#: cache under invalidation.
CHAOS_QUERIES: Tuple[str, ...] = (
    "SELECT grp, count(*) FROM facts GROUP BY grp",
    "SELECT count(*) FROM facts",
    "SELECT grp, max(val) FROM facts WHERE k < 3000 GROUP BY grp",
    "SELECT grp, count(*) FROM facts GROUP BY grp",
)

#: Fault classes whose recovery time the report tracks (injector event
#: kind -> report label).
_RECOVERY_CLASSES = {
    "node-crash": "crash",
    "drain-start": "drain",
    "node-join": "scale-up",
}


class ChaosInvariantError(ExecutionError):
    """A chaos run violated one of the global invariants."""


@dataclass(frozen=True)
class ChaosSchedule:
    """One seeded fault + membership schedule (replayable by spec)."""

    seed: int
    num_workers: int
    horizon: float
    spec: str
    plan: FaultPlan


@dataclass
class ChaosReport:
    """Outcome of one chaos run with all invariants verified."""

    engine: str
    seed: int
    spec: str
    queries: int
    succeeded: int
    deadline_misses: int
    makespan: float
    fault_events: List[Tuple[float, str]] = field(default_factory=list)
    #: mean seconds from each fault-class event to the next query
    #: completion (empty when no query finished after the event)
    recovery_seconds: Dict[str, float] = field(default_factory=dict)
    row_digests: List[str] = field(default_factory=list)
    cache_recheck_hit: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "seed": self.seed,
            "spec": self.spec,
            "queries": self.queries,
            "succeeded": self.succeeded,
            "deadline_misses": self.deadline_misses,
            "makespan": round(self.makespan, 6),
            "fault_events": [[round(t, 6), kind] for t, kind in self.fault_events],
            "recovery_seconds": {
                kind: round(value, 6)
                for kind, value in sorted(self.recovery_seconds.items())
            },
            "row_digests": list(self.row_digests),
            "cache_recheck_hit": self.cache_recheck_hit,
        }


# -- schedule generation -----------------------------------------------------

def generate_schedule(seed: int, num_workers: int = 5,
                      horizon: float = 120.0) -> ChaosSchedule:
    """Derive a randomized fault + membership schedule from *seed*.

    Every clause targets a distinct worker (the fault grammar rejects
    overlapping windows for one worker, and the point here is breadth,
    not pile-ups): one or two crash-with-recovery windows, then with
    seed-dependent probability a straggler, a graceful drain, and a
    scale-up of a brand-new worker index.  The result is validated
    through :meth:`FaultPlan.parse`, so a generated spec is exactly as
    trustworthy as a hand-written one.
    """
    if num_workers < 3:
        raise ExecutionError("chaos schedules need at least 3 workers")
    rng = random.Random(seed)
    pool = list(range(num_workers))
    rng.shuffle(pool)
    clauses = [f"seed:{seed}"]

    for _ in range(rng.choice((1, 1, 2))):
        worker = pool.pop()
        start = round(rng.uniform(2.0, horizon * 0.4), 1)
        width = round(rng.uniform(10.0, horizon * 0.4), 1)
        clauses.append(f"crash:w{worker}@{start:g}-{start + width:g}")

    if rng.random() < 0.6:
        worker = pool.pop()
        factor = rng.choice((2, 3, 4))
        start = round(rng.uniform(0.0, horizon * 0.3), 1)
        width = round(rng.uniform(15.0, horizon * 0.5), 1)
        clauses.append(f"slow:w{worker}x{factor}@{start:g}-{start + width:g}")

    if len(pool) > 1 and rng.random() < 0.5:
        worker = pool.pop()
        at = round(rng.uniform(horizon * 0.2, horizon * 0.6), 1)
        clauses.append(f"drain:w{worker}@{at:g}")

    if rng.random() < 0.5:
        at = round(rng.uniform(2.0, horizon * 0.5), 1)
        clauses.append(f"scale-up:w{num_workers}@{at:g}")

    spec = "; ".join(clauses)
    return ChaosSchedule(
        seed=seed,
        num_workers=num_workers,
        horizon=horizon,
        spec=spec,
        plan=FaultPlan.parse(spec),
    )


# -- ledger audit ------------------------------------------------------------

def assert_clean_ledger(ledger: LeaseLedger,
                        allowed_holders: Sequence[str] = LONG_LIVED_OWNERS,
                        ) -> None:
    """Raise :class:`ChaosInvariantError` unless the ledger balances.

    Checks, in order: no pool's observed peak ever exceeded its
    capacity; no pool's running grant/release balance ever went
    negative (a double release); and no owner outside
    *allowed_holders* still holds a slot (a lost slot — the task died
    without its lease being returned).

    The balance check reads the ledger's O(1) aggregate counters
    (``negative_balance``), so it holds whether or not the per-slot
    event trail was recorded (``repro.lease.audit``); when events *are*
    present — an audited run, or a trail assembled by hand in tests —
    they are replayed too.
    """
    over = ledger.oversubscribed_pools()
    if over:
        raise ChaosInvariantError(f"oversubscribed pools: {over}")
    if ledger.negative_balance is not None:
        raise ChaosInvariantError(ledger.negative_balance)
    balance: Dict[str, int] = {}
    for time, action, pool, query in ledger.events:
        delta = 1 if action == "grant" else -1
        balance[pool] = balance.get(pool, 0) + delta
        if balance[pool] < 0:
            raise ChaosInvariantError(
                f"pool {pool!r} released more slots than were granted "
                f"(at t={time:g}, owner {query!r})"
            )
    leaks = sorted(
        (owner, usage.held)
        for owner, usage in ledger.usage.items()
        if usage.held and owner not in allowed_holders
    )
    if leaks:
        raise ChaosInvariantError(
            "slots still held after drain: "
            + ", ".join(f"{owner}={held}" for owner, held in leaks)
        )


# -- the chaos run -----------------------------------------------------------

def _build_warehouse(num_workers: int):
    """A pristine deterministic warehouse (one ``facts`` table); every
    call returns an identical, independent copy."""
    from repro.common.rows import Schema
    from repro.storage.hdfs import HDFS
    from repro.storage.metastore import Metastore

    rng = random.Random(1234)
    schema = Schema.parse("k int, grp string, val double")
    rows = [
        (i, f"g{rng.randrange(16)}", round(rng.uniform(0.0, 100.0), 3))
        for i in range(3000)
    ]
    hdfs = HDFS(num_workers=num_workers)
    metastore = Metastore(hdfs)
    table = metastore.create_table("facts", schema, format_name="text")
    hdfs.write(f"{table.location}/part-0", schema, rows, scale=1.5e5)
    return hdfs, metastore


def _fresh_session(engine: str, num_workers: int, conf=None):
    from repro.session import connect

    hdfs, metastore = _build_warehouse(num_workers)
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore, conf=conf)
    # cap admission so the workload stretches across the fault windows
    # instead of finishing before the first one opens
    session.conf.set(SCHED_MAX_CONCURRENT, 2)
    return session


def _canonical(rows) -> List[tuple]:
    return sorted((tuple(row) for row in rows or []), key=repr)


def _digest(rows) -> str:
    payload = repr(_canonical(rows)).encode("utf-8")
    return hashlib.sha1(payload).hexdigest()[:16]


def oracle_rows(engine: str, queries: Sequence[str], num_workers: int = 5,
                conf=None) -> List[List[tuple]]:
    """Fault-free reference rows for *queries*, one pristine warehouse,
    same engine, no deadline."""
    session = _fresh_session(engine, num_workers, conf)
    try:
        handles = [session.submit(sql) for sql in queries]
        session.scheduler.drain()
        return [_canonical(handle.result().rows) for handle in handles]
    finally:
        session.close()


def run_chaos(engine: str = "hadoop", seed: int = 0, num_workers: int = 5,
              horizon: float = 120.0, deadline: Optional[float] = None,
              queries: Optional[Sequence[str]] = None, conf=None,
              oracle: Optional[List[List[tuple]]] = None) -> ChaosReport:
    """Run the chaos workload under a seeded schedule and verify every
    invariant; returns the :class:`ChaosReport` on success.

    *deadline* (simulated seconds, optional) bounds each query; a
    deadline miss is **not** an invariant violation — it is counted and
    reported — but a query failing any other way is.  Pass a
    precomputed *oracle* (from :func:`oracle_rows`) to amortize the
    reference run across many seeds.
    """
    schedule = generate_schedule(seed, num_workers=num_workers, horizon=horizon)
    workload = list(queries or CHAOS_QUERIES)
    if oracle is None:
        oracle = oracle_rows(engine, workload, num_workers=num_workers, conf=conf)
    if len(oracle) != len(workload):
        raise ExecutionError("oracle does not match the workload")

    session = _fresh_session(engine, num_workers, conf)
    try:
        session.conf.set(FAULT_SPEC, schedule.spec)
        if deadline is not None:
            session.conf.set(QUERY_DEADLINE, deadline)

        handles = [session.submit(sql) for sql in workload]
        scheduler = session.scheduler
        scheduler.drain()

        # -- invariant 4: liveness --
        stuck = [h.query_id for h in handles if not h.done()]
        if stuck:
            raise ChaosInvariantError(f"queries never finished: {stuck}")

        # -- invariant 1: fault-free oracle equivalence --
        succeeded = 0
        deadline_misses = 0
        digests: List[str] = []
        for index, handle in enumerate(handles):
            if handle.deadline_missed:
                deadline_misses += 1
                if not isinstance(handle.error, QueryTimeoutError):
                    raise ChaosInvariantError(
                        f"{handle.query_id} missed its deadline but raised "
                        f"{type(handle.error).__name__} instead of "
                        f"QueryTimeoutError"
                    )
                digests.append("-")
                continue
            if handle.error is not None:
                raise ChaosInvariantError(
                    f"{handle.query_id} failed under seed {seed}: {handle.error}"
                )
            rows = _canonical(handle.result().rows)
            if rows != oracle[index]:
                raise ChaosInvariantError(
                    f"{handle.query_id} rows diverged from the fault-free "
                    f"oracle under seed {seed} (query {index}: {workload[index]!r})"
                )
            succeeded += 1
            digests.append(_digest(rows))

        # -- invariant 2: lease ledger balances --
        assert_clean_ledger(scheduler.runtime.leases.ledger)

        # -- invariant 3: cache coherence after the dust settles --
        # the recheck probes staleness, not latency: lift the deadline
        if deadline is not None:
            session.conf.set(QUERY_DEADLINE, 0.0)
        recheck = session.submit(workload[0])
        scheduler.drain()
        if recheck.error is not None:
            raise ChaosInvariantError(
                f"post-chaos recheck failed: {recheck.error}"
            )
        recheck_result = recheck.result()
        if _canonical(recheck_result.rows) != oracle[0]:
            raise ChaosInvariantError(
                f"post-chaos recheck returned stale rows under seed {seed}"
            )

        summary = scheduler.summary()
        injector_events = [
            (event.time, event.kind)
            for event in scheduler.runtime.injector.events
        ]
        finish_times = sorted(
            h.finished_at for h in handles
            if h.finished_at is not None and h.error is None
        )
        recovery: Dict[str, List[float]] = {}
        for time, kind in injector_events:
            label = _RECOVERY_CLASSES.get(kind)
            if label is None:
                continue
            after = [t for t in finish_times if t >= time]
            if after:
                recovery.setdefault(label, []).append(after[0] - time)
        return ChaosReport(
            engine=session.engine.name,
            seed=seed,
            spec=schedule.spec,
            queries=len(handles),
            succeeded=succeeded,
            deadline_misses=deadline_misses,
            makespan=float(summary["makespan"]),
            fault_events=injector_events,
            recovery_seconds={
                kind: sum(values) / len(values)
                for kind, values in recovery.items()
            },
            row_digests=digests,
            cache_recheck_hit=bool(recheck_result.cache_hit),
        )
    finally:
        session.close()


def verify_replay(engine: str, seed: int, **kwargs) -> ChaosReport:
    """Run the same schedule twice and require identical reports —
    the determinism guarantee the whole fault model rests on."""
    first = run_chaos(engine, seed, **kwargs)
    second = run_chaos(engine, seed, **kwargs)
    if first.to_dict() != second.to_dict():
        raise ChaosInvariantError(
            f"replay diverged for engine={engine} seed={seed}: "
            f"{first.to_dict()} != {second.to_dict()}"
        )
    return first


__all__ = [
    "CHAOS_QUERIES",
    "ChaosInvariantError",
    "ChaosReport",
    "ChaosSchedule",
    "assert_clean_ledger",
    "generate_schedule",
    "oracle_rows",
    "run_chaos",
    "verify_replay",
]
