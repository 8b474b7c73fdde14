"""Slot leasing: multi-query arbitration over the cluster's slot pools.

A solo query owns its whole simulated cluster, so :class:`SlotPool`'s
built-in FIFO wait queue is all the scheduling it needs.  Once several
queries share one cluster (``repro.sched``), every slot acquisition goes
through a :class:`LeaseManager` instead, which adds three things the raw
pools cannot provide:

* **arbitration** — when a slot frees up, a pluggable policy decides
  *which query's* pending request gets it (``fifo``: strict arrival
  order with backfill; ``fair``: weighted per-pool shares, then
  per-query max-min, see :meth:`LeaseManager._fair_key`);
* **gang allocation** — DataMPI schedules one O task per slot and has
  no task waves, so a job needs its whole slot set *atomically*:
  :meth:`LeaseManager.acquire_gang` grants all-or-nothing (a partial
  hold is never observable, so two gangs can never deadlock each other);
* **attribution** — a :class:`LeaseLedger` records per-query slot
  occupancy (slot-seconds, peaks, queue wait) and per-pool usage peaks,
  which the scheduler exposes through ``repro.obs`` span attributes and
  the concurrency tests use to assert ``in_use <= capacity`` invariants.

Single-lease behaviour is event-order identical to the bare
``SlotPool`` protocol (immediate synchronous grant when capacity is
free, synchronous hand-over to the head waiter on release), so a solo
``run_plan`` through the manager replays byte-identical simulations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.simulate.events import Event, Simulator
from repro.simulate.resources import SlotPool


class LeaseOwner:
    """Identity of a lease holder: one query, in one scheduling pool."""

    __slots__ = ("query_id", "pool", "weight")

    def __init__(self, query_id: str, pool: str = "default", weight: float = 1.0):
        if weight <= 0:
            raise ExecutionError(f"lease owner weight must be positive: {weight}")
        self.query_id = query_id
        self.pool = pool
        self.weight = weight

    def __repr__(self) -> str:
        return f"LeaseOwner({self.query_id!r}, pool={self.pool!r}, weight={self.weight})"


_ANONYMOUS = LeaseOwner("-", pool="default", weight=1.0)


class OwnerUsage:
    """Slot occupancy integral for one query (ledger attribution row)."""

    __slots__ = ("held", "peak", "slot_seconds", "queue_wait_seconds",
                 "grants", "_last")

    def __init__(self):
        self.held = 0
        self.peak = 0
        self.slot_seconds = 0.0
        self.queue_wait_seconds = 0.0
        self.grants = 0
        self._last = 0.0

    def _touch(self, now: float) -> None:
        if self.held:
            self.slot_seconds += self.held * (now - self._last)
        self._last = now


class LeaseLedger:
    """Everything the lease manager observed, for tests and attribution.

    Aggregate accounting is always on and O(1) per grant/release:
    ``grant_counts`` / ``release_counts`` per pool, a running
    outstanding balance whose first dip below zero is captured in
    ``negative_balance`` (a release-before-grant), ``max_in_use`` per
    pool never exceeding ``capacity`` (the no-oversubscription
    invariant), per-owner :class:`OwnerUsage` rows, and ``gang_grants``
    recording each atomic gang grant with its full slot set
    (all-or-nothing evidence).

    The full per-slot event trail — ``events`` as (time, action, pool,
    query) tuples in grant/release order — is **opt-in** via
    ``audit=True`` (config key ``repro.lease.audit``): a serving run
    completing tens of thousands of queries would otherwise grow the
    list without bound.  ``assert_clean_ledger`` checks the aggregates,
    so the invariants hold with auditing off.
    """

    def __init__(self, audit: bool = False):
        self.audit = audit
        self.events: List[Tuple[float, str, str, str]] = []
        self.max_in_use: Dict[str, int] = {}
        self.capacity: Dict[str, int] = {}
        self.usage: Dict[str, OwnerUsage] = {}
        self.gang_grants: List[Tuple[float, str, Tuple[Tuple[str, int], ...]]] = []
        self.grant_counts: Dict[str, int] = {}
        self.release_counts: Dict[str, int] = {}
        self.negative_balance: Optional[str] = None
        self._outstanding: Dict[str, int] = {}

    def owner_usage(self, query_id: str) -> OwnerUsage:
        usage = self.usage.get(query_id)
        if usage is None:
            usage = self.usage[query_id] = OwnerUsage()
        return usage

    def note_pool(self, pool: SlotPool) -> None:
        self.capacity.setdefault(pool.name, pool.capacity)
        if pool.in_use > self.max_in_use.get(pool.name, 0):
            self.max_in_use[pool.name] = pool.in_use

    def record_grant(self, now: float, pool_name: str, query_id: str,
                     count: int = 1) -> None:
        self.grant_counts[pool_name] = self.grant_counts.get(pool_name, 0) + count
        self._outstanding[pool_name] = self._outstanding.get(pool_name, 0) + count
        if self.audit:
            # one event per slot so grants and releases balance exactly
            # when the trail is replayed (gang grants take several at once)
            for _ in range(count):
                self.events.append((now, "grant", pool_name, query_id))

    def record_release(self, now: float, pool_name: str, query_id: str) -> None:
        self.release_counts[pool_name] = self.release_counts.get(pool_name, 0) + 1
        outstanding = self._outstanding.get(pool_name, 0) - 1
        self._outstanding[pool_name] = outstanding
        if outstanding < 0 and self.negative_balance is None:
            self.negative_balance = (
                f"pool {pool_name!r} released more slots than were granted "
                f"(at t={now:g}, owner {query_id!r})"
            )
        if self.audit:
            self.events.append((now, "release", pool_name, query_id))

    def oversubscribed_pools(self) -> List[str]:
        """Pools whose observed peak exceeded capacity (always empty
        unless the manager is broken — the concurrency suite asserts it)."""
        return sorted(
            name for name, peak in self.max_in_use.items()
            if peak > self.capacity.get(name, peak)
        )


class _LeaseRequest:
    __slots__ = ("seq", "owner", "wants", "event", "requested_at", "gang")

    def __init__(self, seq: int, owner: LeaseOwner,
                 wants: List[Tuple[SlotPool, int]], event: Event,
                 requested_at: float, gang: bool):
        self.seq = seq
        self.owner = owner
        self.wants = wants
        self.event = event
        self.requested_at = requested_at
        self.gang = gang


class GangLease:
    """An atomically granted slot set (one DataMPI job submission's O slots).

    The grant happens in the job driver, before the O tasks are spawned;
    each task :meth:`checkout`\\ s its slot when it starts running and
    releases it through the manager when it exits.  A task interrupted
    *before its first step* never runs its ``finally`` block, so its slot
    stays checked-in — :meth:`release_unclaimed` in the job driver's own
    cleanup returns exactly those, keeping every slot released exactly
    once on every abort path.
    """

    __slots__ = ("owner", "_manager", "_unclaimed")

    def __init__(self, manager: "LeaseManager", owner: LeaseOwner,
                 wants: Sequence[Tuple[SlotPool, int]]):
        self.owner = owner
        self._manager = manager
        self._unclaimed: Dict[SlotPool, int] = {}
        for pool, count in wants:
            self._unclaimed[pool] = self._unclaimed.get(pool, 0) + count

    def claimable(self, pool: SlotPool) -> int:
        return self._unclaimed.get(pool, 0)

    def checkout(self, pool: SlotPool) -> None:
        """Transfer one granted slot's release duty to the calling task."""
        remaining = self._unclaimed.get(pool, 0)
        if remaining <= 0:
            raise ExecutionError(
                f"gang checkout without a reserved slot on {pool.name!r}"
            )
        self._unclaimed[pool] = remaining - 1

    def release_unclaimed(self) -> None:
        """Return every slot no task checked out (abort/cleanup path)."""
        for pool, count in sorted(self._unclaimed.items(),
                                  key=lambda item: item[0].name):
            for _ in range(count):
                self._manager.release(pool, self.owner)
        self._unclaimed.clear()


class LeaseManager:
    """Arbitrates every task-slot acquisition on one shared cluster.

    ``policy`` is ``"fifo"`` (arrival order, with backfill past requests
    that do not fit yet) or ``"fair"`` (weighted per-pool shares, then
    per-query max-min, arbitration applied every time a slot frees up).
    Admission control — *whether a query may run at all* — lives a layer
    up in ``repro.sched``; the manager only divides slots between the
    queries already running.
    """

    def __init__(self, sim: Simulator, policy: str = "fifo",
                 ledger: Optional[LeaseLedger] = None, audit: bool = False):
        if policy not in ("fifo", "fair"):
            raise ExecutionError(f"unknown lease policy: {policy!r}")
        self.sim = sim
        self.policy = policy
        self.ledger = ledger or LeaseLedger(audit=audit)
        # the queue, in arrival order (a dict keeps it, and unqueues in O(1))
        self._pending: Dict[Event, _LeaseRequest] = {}
        # the same requests by wanted pool name (``seq`` -> request, so
        # arrival order again): ``acquire`` asks "is anyone ahead of me
        # on this pool" and ``release`` "who can the freed slot serve"
        # without scanning every pending request's wants
        self._pending_by_pool: Dict[str, Dict[int, _LeaseRequest]] = {}
        # True while no pending request fits: a release can then only
        # serve requests that want the freed pool.  A request queued
        # although it fits (behind another, ``_enqueue``) breaks it
        # until the next full pass.
        self._settled = True
        self._seq = 0
        self._active_by_pool_group: Dict[str, int] = {}
        self._active_by_query: Dict[str, int] = {}

    # -- single leases -------------------------------------------------------
    def acquire(self, pool: SlotPool, owner: Optional[LeaseOwner] = None) -> Event:
        """Request one slot; the returned event triggers (with the pool as
        value) once the slot is held — immediately when capacity is free."""
        owner = owner or _ANONYMOUS
        event = Event(self.sim)
        if pool.in_use < pool.capacity and self._fits_nothing_ahead(pool):
            self._take(pool, owner, waited=0.0)
            event.trigger(pool)
        else:
            self._enqueue([(pool, 1)], owner, event, gang=False)
        return event

    def release(self, pool: SlotPool, owner: Optional[LeaseOwner] = None) -> None:
        """Return one slot and re-arbitrate: the policy's pick among the
        pending requests is granted synchronously (direct hand-over,
        exactly like ``SlotPool.release``)."""
        owner = owner or _ANONYMOUS
        pool.release()  # keeps the over-release check; waiters never queue here
        self._account_release(pool, owner)
        self._dispatch(pool)

    def cancel(self, pool: SlotPool, event: Event,
               owner: Optional[LeaseOwner] = None) -> None:
        """Withdraw a single-slot ``acquire`` whose waiter was interrupted
        (same contract as ``SlotPool.cancel_acquire``)."""
        request = self._pending.get(event)
        if request is not None:
            self._unqueue(request)
            return
        if event.triggered:
            self.release(pool, owner)

    def cancel_gang(self, event: Event,
                    owner: Optional[LeaseOwner] = None) -> None:
        """Withdraw a pending ``acquire_gang`` whose waiter was
        interrupted (deadline/abort).  If the gang was already granted,
        every still-unclaimed slot is returned instead — checked-out
        slots remain the owning tasks' duty, exactly as on the normal
        cleanup path."""
        request = self._pending.get(event)
        if request is not None:
            self._unqueue(request)
            return
        if event.triggered and isinstance(event.value, GangLease):
            event.value.release_unclaimed()

    # -- gang leases ---------------------------------------------------------
    def acquire_gang(self, wants: Sequence[Tuple[SlotPool, int]],
                     owner: Optional[LeaseOwner] = None) -> Event:
        """Request several slots across several pools *atomically*.

        The returned event triggers with a :class:`GangLease` once every
        requested slot is held; until then nothing is held at all, so a
        waiting gang can never wedge another query's progress.
        """
        owner = owner or _ANONYMOUS
        wants = [(pool, count) for pool, count in wants if count > 0]
        for pool, count in wants:
            if count > pool.capacity:
                raise ExecutionError(
                    f"gang wants {count} slots of {pool.name!r} "
                    f"(capacity {pool.capacity}); clamp before requesting"
                )
        event = Event(self.sim)
        if not wants:
            event.trigger(GangLease(self, owner, []))
            return event
        if self._pending or not self._fits(wants):
            self._enqueue(wants, owner, event, gang=True)
        else:
            self._grant_gang(wants, owner, event, waited=0.0)
        return event

    # -- introspection -------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def active_leases(self, query_id: str) -> int:
        return self._active_by_query.get(query_id, 0)

    # -- internals -----------------------------------------------------------
    def _fits_nothing_ahead(self, pool: SlotPool) -> bool:
        # A fresh request may only jump straight to a free slot when no
        # queued request wants that pool (the queued one was first);
        # requests blocked on *other* pools do not reserve this one.
        return not self._pending_by_pool.get(pool.name)

    def _enqueue(self, wants: List[Tuple[SlotPool, int]], owner: LeaseOwner,
                 event: Event, gang: bool) -> None:
        self._seq += 1
        request = _LeaseRequest(self._seq, owner, wants, event,
                                self.sim.now, gang)
        if self._fits(wants):
            self._settled = False  # queued behind someone, not for room
        self._pending[event] = request
        for pool, _count in wants:
            self._pending_by_pool.setdefault(pool.name, {})[request.seq] = request

    def _unqueue(self, request: _LeaseRequest) -> None:
        del self._pending[request.event]
        for pool, _count in request.wants:
            self._pending_by_pool[pool.name].pop(request.seq, None)

    def _take(self, pool: SlotPool, owner: LeaseOwner, waited: float,
              count: int = 1) -> None:
        pool.in_use += count
        self.ledger.note_pool(pool)
        now = self.sim.now
        usage = self.ledger.owner_usage(owner.query_id)
        usage._touch(now)
        usage.held += count
        usage.grants += count
        usage.queue_wait_seconds += waited * count
        if usage.held > usage.peak:
            usage.peak = usage.held
        self._active_by_pool_group[owner.pool] = (
            self._active_by_pool_group.get(owner.pool, 0) + count
        )
        self._active_by_query[owner.query_id] = (
            self._active_by_query.get(owner.query_id, 0) + count
        )
        self.ledger.record_grant(now, pool.name, owner.query_id, count)

    def _account_release(self, pool: SlotPool, owner: LeaseOwner) -> None:
        now = self.sim.now
        usage = self.ledger.owner_usage(owner.query_id)
        usage._touch(now)
        usage.held -= 1
        self._active_by_pool_group[owner.pool] = (
            self._active_by_pool_group.get(owner.pool, 0) - 1
        )
        self._active_by_query[owner.query_id] = (
            self._active_by_query.get(owner.query_id, 0) - 1
        )
        self.ledger.record_release(now, pool.name, owner.query_id)

    @staticmethod
    def _fits(wants: Sequence[Tuple[SlotPool, int]]) -> bool:
        for pool, count in wants:
            if pool.capacity - pool.in_use < count:
                return False
        return True

    def _fair_key(self, request: _LeaseRequest) -> Tuple[float, int, int]:
        owner = request.owner
        pool_share = (
            self._active_by_pool_group.get(owner.pool, 0) / owner.weight
        )
        return (pool_share, self._active_by_query.get(owner.query_id, 0),
                request.seq)

    def _select(self, freed: SlotPool) -> Optional[_LeaseRequest]:
        """The policy's pick among the pending requests that fit now
        that a slot of *freed* came back: the first in arrival order
        (``fifo``) or the least ``_fair_key`` (``fair`` — keys are
        unique by ``seq``, so this is the first fit of the sorted
        queue without sorting it)."""
        if self._settled:
            candidates = self._pending_by_pool.get(freed.name, {}).values()
        else:
            candidates = self._pending.values()
        fitting = (request for request in candidates
                   if self._fits(request.wants))
        if self.policy == "fair":
            return min(fitting, key=self._fair_key, default=None)
        return next(fitting, None)

    def _dispatch(self, freed: SlotPool) -> None:
        while self._pending:
            request = self._select(freed)
            if request is None:
                break
            self._unqueue(request)
            waited = self.sim.now - request.requested_at
            if request.gang:
                self._grant_gang(request.wants, request.owner, request.event,
                                 waited)
            else:
                pool = request.wants[0][0]
                self._take(pool, request.owner, waited)
                request.event.trigger(pool)
        self._settled = True  # the last pass found nothing that fits

    def _grant_gang(self, wants: Sequence[Tuple[SlotPool, int]],
                    owner: LeaseOwner, event: Event, waited: float) -> None:
        for pool, count in wants:
            self._take(pool, owner, waited, count=count)
        self.ledger.gang_grants.append((
            self.sim.now, owner.query_id,
            tuple((pool.name, count) for pool, count in wants),
        ))
        event.trigger(GangLease(self, owner, wants))
