"""Lease arbitration equivalence, as a property.

``LeaseManager`` picks, on every release, among the pending requests
that fit — looking only at the requests that want the freed pool while
it knows nothing else can fit, and without sorting the queue under
``fair``.  ``ReferenceManager`` below keeps the arbitration this
replaced (``44e232d``): one list, a count of wants per pool, and on
every release ``sorted(pending, key=_fair_key)`` (``fair``) or the list
itself (``fifo``) scanned for the first request that fits.

Random interleavings of ``acquire`` / ``acquire_gang`` / ``release`` /
``cancel`` / ``cancel_gang`` / clock advances over 2–12 pools, with
weighted owners, few enough owners that ``_fair_key`` ties down to
``seq``, and requests that never fit, must produce the identical grant
sequence, the identical ledger and an empty queue at the end.  The
property must *fail* on the two mutants at the bottom.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.simulate.events import Event, Simulator
from repro.simulate.leases import (
    GangLease,
    LeaseManager,
    LeaseOwner,
    _LeaseRequest,
)
from repro.simulate.resources import SlotPool


class ReferenceManager(LeaseManager):
    """Queue handling and selection exactly as at ``44e232d``."""

    def __init__(self, sim, policy, audit=False):
        super().__init__(sim, policy, audit=audit)
        self._queue = []
        self._wants = {}

    @property
    def pending_count(self):
        return len(self._queue)

    def _fits_nothing_ahead(self, pool):
        return self._wants.get(pool.name, 0) == 0

    def acquire_gang(self, wants, owner=None):
        wants = [(pool, count) for pool, count in wants if count > 0]
        event = Event(self.sim)
        if self._queue or not self._fits(wants):
            self._enqueue(wants, owner, event, gang=True)
        else:
            self._grant_gang(wants, owner, event, waited=0.0)
        return event

    def _enqueue(self, wants, owner, event, gang):
        self._seq += 1
        request = _LeaseRequest(self._seq, owner, list(wants), event,
                                self.sim.now, gang)
        self._queue.append(request)
        for pool, _count in wants:
            self._wants[pool.name] = self._wants.get(pool.name, 0) + 1

    def _withdraw(self, event):
        for request in self._queue:
            if request.event is event:
                self._unqueue(request)
                return True
        return False

    def cancel(self, pool, event, owner=None):
        if not self._withdraw(event) and event.triggered:
            self.release(pool, owner)

    def cancel_gang(self, event, owner=None):
        if not self._withdraw(event) and event.triggered:
            event.value.release_unclaimed()

    def _unqueue(self, request):
        self._queue.remove(request)
        for pool, _count in request.wants:
            self._wants[pool.name] -= 1

    def _select(self, freed=None):
        if self.policy == "fair":
            candidates = sorted(self._queue, key=self._fair_key)
        else:
            candidates = self._queue
        for request in candidates:
            if self._fits(request.wants):
                return request
        return None

    def _dispatch(self, freed=None):
        while self._queue:
            request = self._select()
            if request is None:
                return
            self._unqueue(request)
            waited = self.sim.now - request.requested_at
            if request.gang:
                self._grant_gang(request.wants, request.owner, request.event,
                                 waited)
            else:
                pool = request.wants[0][0]
                self._take(pool, request.owner, waited)
                request.event.trigger(pool)


class Harness:
    """One manager plus the bookkeeping a caller would keep: which
    requests are outstanding and what each granted one still holds."""

    OWNERS = (("q1", "bi", 2.0), ("q2", "bi", 2.0), ("q3", "etl", 1.0),
              ("q4", "adhoc", 0.5), ("q5", "etl", 1.0))

    def __init__(self, manager_class, policy, capacities):
        self.sim = Simulator()
        self.manager = manager_class(self.sim, policy, audit=True)
        self.pools = [SlotPool(self.sim, capacity, name=f"p{index}")
                      for index, capacity in enumerate(capacities)]
        self.owners = [LeaseOwner(*owner) for owner in self.OWNERS]
        self.requests = []  # [event, owner, pool or None for a gang]

    def apply(self, op):
        kind = op[0]
        if kind == "tick":
            self.sim.now += op[1]
        elif kind == "acquire":
            pool = self.pools[op[1] % len(self.pools)]
            owner = self.owners[op[2] % len(self.owners)]
            self.requests.append(
                [self.manager.acquire(pool, owner), owner, pool])
        elif kind == "gang":
            owner = self.owners[op[2] % len(self.owners)]
            wants = {}
            for index, count in op[1]:
                pool = self.pools[index % len(self.pools)]
                wants[pool] = min(pool.capacity, max(wants.get(pool, 0), count))
            self.requests.append(
                [self.manager.acquire_gang(list(wants.items()), owner),
                 owner, None])
        elif kind == "cancel" and self.requests:
            # pending: withdraw; granted: give everything back
            event, owner, pool = self.requests.pop(op[1] % len(self.requests))
            if pool is None:
                self.manager.cancel_gang(event, owner)
            else:
                self.manager.cancel(pool, event, owner)
        elif kind == "release":
            granted = [r for r in self.requests if r[0].triggered]
            if not granted:
                return
            request = granted[op[1] % len(granted)]
            event, owner, pool = request
            if pool is not None:
                self.requests.remove(request)
                self.manager.release(pool, owner)
                return
            lease = event.value
            held = [p for p in self.pools if lease.claimable(p)]
            if held:  # a task checks its slot out and returns it
                lease.checkout(held[0])
                self.manager.release(held[0], owner)
            else:
                self.requests.remove(request)

    def wind_down(self):
        """Give everything back, withdraw everything still queued."""
        while self.requests:
            self.apply(("cancel", 0))

    def observed(self):
        ledger = self.manager.ledger
        return {
            "granted": [event.triggered for event, _o, _p in self.requests],
            "gangs": [
                sorted((p.name, event.value.claimable(p)) for p in self.pools)
                for event, _o, pool in self.requests
                if pool is None and event.triggered
                and isinstance(event.value, GangLease)
            ],
            "pending": self.manager.pending_count,
            "in_use": [pool.in_use for pool in self.pools],
            "events": list(ledger.events),
            "gang_grants": list(ledger.gang_grants),
            "grant_counts": dict(ledger.grant_counts),
            "release_counts": dict(ledger.release_counts),
            "max_in_use": dict(ledger.max_in_use),
            "negative_balance": ledger.negative_balance,
            "usage": {
                query: tuple(getattr(row, slot) for slot in row.__slots__)
                for query, row in ledger.usage.items()
            },
        }


# skewed towards the first pools, so that they fill up and queue
POOL = st.sampled_from((0, 0, 0, 1, 1, 1, 2, 2, 3, 5, 8, 11))
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), POOL, st.integers(0, 4)),
        st.tuples(
            st.just("gang"),
            st.lists(st.tuples(POOL, st.integers(1, 3)),
                     min_size=1, max_size=4),
            st.integers(0, 4),
        ),
        st.tuples(st.just("release"), st.integers(0, 40)),
        st.tuples(st.just("release"), st.integers(0, 40)),  # twice as likely
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("tick"), st.sampled_from((0.25, 1.0, 3.5))),
    ),
    max_size=60,
)
CAPACITIES = st.lists(st.integers(1, 3), min_size=2, max_size=12)


def check_equivalent(manager_class, policy, capacities, ops):
    reference = Harness(ReferenceManager, policy, capacities)
    candidate = Harness(manager_class, policy, capacities)
    for step, op in enumerate(ops):
        reference.apply(op)
        candidate.apply(op)
        assert candidate.observed() == reference.observed(), (step, op)
    reference.wind_down()
    candidate.wind_down()
    assert candidate.observed() == reference.observed(), "wind-down"
    assert candidate.manager.pending_count == 0
    assert all(pool.in_use == 0 for pool in candidate.pools)
    assert candidate.manager.ledger.negative_balance is None


@pytest.mark.parametrize("policy", ("fair", "fifo"))
def test_arbitration_matches_the_sorted_first_fit(policy):
    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(capacities=CAPACITIES, ops=OPS)
    def run(capacities, ops):
        check_equivalent(LeaseManager, policy, capacities, ops)

    run()


class MinOverAllPending(LeaseManager):
    """Mutant: the least key of the whole queue, fitting or not."""

    def _select(self, freed):
        best = min(self._pending.values(), key=self._fair_key, default=None)
        return best if best is not None and self._fits(best.wants) else None


class TrustsTheIndex(LeaseManager):
    """Mutant: only ever looks at the requests that want the freed pool
    — it ignores a gang (or anyone queued behind one) that fits on pools
    nobody released."""

    def _enqueue(self, wants, owner, event, gang):
        super()._enqueue(wants, owner, event, gang)
        self._settled = True


@pytest.mark.parametrize("mutant, policy", [
    (MinOverAllPending, "fair"),
    (TrustsTheIndex, "fair"),
    (TrustsTheIndex, "fifo"),
])
def test_the_property_kills_the_mutants(mutant, policy):
    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True, report_multiple_bugs=False,
              phases=(Phase.generate,))  # found is enough: no shrinking
    @given(capacities=CAPACITIES, ops=OPS)
    def run(capacities, ops):
        check_equivalent(mutant, policy, capacities, ops)

    with pytest.raises(AssertionError):
        run()


def test_release_path_does_not_sort(monkeypatch):
    """The fair pick is a ``min`` over the fitting requests of one
    pool's queue: no ``sorted`` on the release path, and ``_fair_key``
    runs once per *candidate*, not once per pending request."""
    from repro.simulate import leases

    sim = Simulator()
    manager = LeaseManager(sim, "fair")
    pools = [SlotPool(sim, 1, name=f"p{index}") for index in range(20)]
    owners = [LeaseOwner(f"q{index}") for index in range(20)]
    for pool, owner in zip(pools, owners):
        manager.acquire(pool, owner)  # every pool is now full
    for pool in pools:
        for owner in owners[:3]:
            manager.acquire(pool, owner)  # 60 pending, 3 per pool
    keyed = []
    original = LeaseManager._fair_key
    monkeypatch.setattr(LeaseManager, "_fair_key",
                        lambda self, request: keyed.append(request)
                        or original(self, request))
    # shadows the builtin inside the module only: calling it raises
    monkeypatch.setattr(leases, "sorted", None, raising=False)
    manager.release(pools[7], owners[7])
    assert pools[7].in_use == 1 and manager.pending_count == 59
    assert len(keyed) == 3
