"""Regression tests for DES-kernel and buffer accounting bugs.

Each test here pins a specific accounting fix:

* ``Simulator.cancel`` after the callback fired must not decrement the
  pending-work counter a second time (the counter was consumed when the
  call executed);
* ``Bandwidth._on_timer`` must credit the float residue of *every*
  transfer finishing in the tick, not just the timer target;
* ``SendQueue`` capacity must count buffers popped by the sender but not
  yet transmitting (the get -> transfer_started window);
* ``ReceiveManager.deliver`` must split a buffer straddling the cache
  budget and ``release_partition`` must free exactly what was cached;
* a stale wakeup from an abandoned wait target must not double-resume a
  process;
* the same-instant FIFO fast path must preserve scheduling order, stop
  when only daemon work is left and honour ``until=``;
* ``AllOf`` / ``AnyOf`` register on their children as joins (no agenda
  entry per child): the joins must show up in ``callback_count``, be
  detached from race losers, and conditions over already-triggered
  children must be born triggered;
* ``Bandwidth``'s fused one-pass admit/finish must perform exactly the
  float operations of the three-loop version it replaced (kept below as
  the reference) — completion instants and counters identical to the
  last bit.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.common.kv import KeyValue
from repro.engines.datampi.buffers import ReceiveManager, SendBuffer, SendQueue
from repro.simulate import Cluster, ClusterSpec, Event, Interrupt, Simulator
from repro.simulate.resources import _EPSILON_BYTES, Bandwidth

from .shuffle_reference import segments_of


class TestCancelAfterFire:
    def test_cancel_of_executed_handle_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a"]
        # the buggy kernel decremented the pending counter here ...
        sim.cancel(handle)
        sim.cancel(handle)  # idempotent too
        # ... which made the next run() stop with regular work pending
        sim.call_at(2.0, lambda: fired.append("b"))
        sim.call_at(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_cancel_before_fire_still_cancels(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(1.0, lambda: fired.append("a"))
        sim.call_at(2.0, lambda: fired.append("b"))
        sim.cancel(handle)
        sim.run()
        assert fired == ["b"]


class TestBandwidthResidue:
    def test_equal_transfers_finish_together(self):
        sim = Simulator()
        link = Bandwidth(sim, rate_bytes_per_s=100.0)
        done = []
        for label in ("x", "y"):
            link.transfer(50.0, category=label).add_callback(
                lambda _v, _l=label: done.append((_l, sim.now))
            )
        sim.run()
        # two equal flows sharing the link finish at the same instant;
        # the buggy timer left the non-target flow with a float residue
        # and an extra (later) timer tick
        assert [t for _l, t in done] == [1.0, 1.0]
        assert link.active_transfers == 0

    def test_residue_credited_to_byte_counters(self):
        sim = Simulator()
        link = Bandwidth(sim, rate_bytes_per_s=64.0)
        # three unequal flows whose shares produce float residues
        for nbytes in (10.0, 20.0, 30.0):
            link.transfer(nbytes, category="c")
        sim.run()
        assert link.bytes_moved == pytest.approx(60.0, abs=1e-9)
        assert link.categorized["c"] == pytest.approx(60.0, abs=1e-9)


class TestSendQueueHandedWindow:
    def test_put_blocked_between_get_and_transfer_started(self):
        sim = Simulator()
        queue = SendQueue(sim, capacity=1)
        first, second = SendBuffer(0), SendBuffer(1)
        assert queue.put(first).triggered
        taken = queue.get()
        assert taken.triggered and taken.value is first
        # the slot is NOT free yet: the sender holds the buffer but has
        # not started transmitting — the buggy backlog ignored this
        blocked = queue.put(second)
        assert not blocked.triggered
        assert queue.backlog == 1
        queue.transfer_started()
        assert not blocked.triggered
        queue.transfer_finished()
        sim.run()
        assert blocked.triggered

    def test_transfer_started_requires_pending_get(self):
        queue = SendQueue(Simulator(), capacity=2)
        with pytest.raises(ExecutionError):
            queue.transfer_started()


@pytest.fixture()
def cluster():
    sim = Simulator()
    return Cluster(sim, ClusterSpec())


class TestReceivePartialSpill:
    def _deliver(self, sim, manager, buffers):
        def proc():
            for buffer in buffers:
                yield from manager.deliver(buffer.partition, buffer)

        sim.spawn(proc())
        sim.run()

    def test_straddling_buffer_split_between_cache_and_disk(self, cluster):
        sim = cluster.sim
        manager = ReceiveManager(
            sim, [cluster.workers[0]], cache_budget_per_node=100.0
        )
        pairs = segments_of([KeyValue((1,), (0, "v"))])
        self._deliver(sim, manager, [
            SendBuffer(0, segments=pairs, actual_bytes=70, scale=1.0),
            SendBuffer(0, segments=pairs, actual_bytes=70, scale=1.0),
        ])
        # the all-or-nothing version spilled the whole second buffer (70);
        # the fix caches the 30 bytes that still fit and spills 40
        assert manager.cached_partition_bytes[0] == pytest.approx(100.0)
        assert manager.spilled_bytes[0] == pytest.approx(40.0)
        assert manager.received_bytes[0] == pytest.approx(140.0)

    def test_release_partition_is_exact(self, cluster):
        sim = cluster.sim
        node = cluster.workers[0]
        # two partitions sharing one node's cache budget
        manager = ReceiveManager(sim, [node, node], cache_budget_per_node=100.0)
        pairs = segments_of([KeyValue((1,), (0, "v"))])
        self._deliver(sim, manager, [
            SendBuffer(0, segments=pairs, actual_bytes=60, scale=1.0),
            SendBuffer(1, segments=pairs, actual_bytes=60, scale=1.0),
        ])
        # partition 1 straddled: only 40 of its 60 bytes are cached
        assert manager.cached_bytes[node] == pytest.approx(100.0)
        manager.release_partition(1)
        assert manager.cached_bytes[node] == pytest.approx(60.0)
        assert manager.cached_partition_bytes[1] == 0.0
        manager.release_partition(0)
        assert manager.cached_bytes[node] == pytest.approx(0.0)

    def test_double_release_is_noop(self, cluster):
        sim = cluster.sim
        node = cluster.workers[0]
        manager = ReceiveManager(sim, [node], cache_budget_per_node=1000.0)
        pairs = segments_of([KeyValue((1,), (0, "v"))])
        self._deliver(
            sim, manager,
            [SendBuffer(0, segments=pairs, actual_bytes=80, scale=1.0)],
        )
        manager.release_partition(0)
        assert manager.cached_bytes[node] == pytest.approx(0.0)
        manager.release_partition(0)  # nothing cached anymore: no-op
        assert manager.cached_bytes[node] == pytest.approx(0.0)

    def test_over_free_raises(self, cluster):
        sim = cluster.sim
        node = cluster.workers[0]
        manager = ReceiveManager(sim, [node], cache_budget_per_node=1000.0)
        pairs = segments_of([KeyValue((1,), (0, "v"))])
        self._deliver(
            sim, manager,
            [SendBuffer(0, segments=pairs, actual_bytes=80, scale=1.0)],
        )
        # corrupt the node-level ledger: the release now frees more than
        # the node holds, which must surface as an error, not be clamped
        manager.cached_bytes[node] = 30.0
        with pytest.raises(ExecutionError):
            manager.release_partition(0)


class TestStaleWakeup:
    def test_abandoned_event_does_not_double_resume(self):
        sim = Simulator()
        abandoned = sim.event()
        log = []

        def waiter():
            try:
                yield abandoned
                log.append("unexpected")
            except Interrupt as exc:
                log.append(type(exc).__name__)
            # new wait target; the stale wakeup from `abandoned` must not
            # resume us early out of this timeout
            yield sim.timeout(5.0)
            log.append(sim.now)

        process = sim.spawn(waiter())

        def driver():
            yield sim.timeout(1.0)
            process.interrupt("test")
            yield sim.timeout(1.0)
            # fires the abandoned event while the process waits elsewhere
            abandoned.trigger("late")

        sim.spawn(driver())
        sim.run()
        assert log == ["Interrupt", 6.0]

    def test_wakeup_after_normal_resume_is_ignored(self):
        sim = Simulator()
        first = sim.event()
        second = sim.event()
        log = []

        def waiter():
            value = yield first
            log.append(value)
            value = yield second
            log.append(value)

        sim.spawn(waiter())

        def driver():
            yield sim.timeout(1.0)
            first.trigger("one")
            yield sim.timeout(1.0)
            second.trigger("two")

        sim.spawn(driver())
        sim.run()
        assert log == ["one", "two"]


class TestSameInstantFifo:
    def test_call_soon_preserves_issue_order(self):
        sim = Simulator()
        order = []

        def root():
            for label in "abc":
                sim.call_soon(order.append, label)
            sim.call_at(sim.now, order.append, "d")  # same instant -> FIFO
            sim.call_soon(order.append, "e")

        sim.call_soon(root)
        sim.run()
        assert order == list("abcde")

    def test_due_heap_entries_run_before_soon_entries(self):
        sim = Simulator()
        order = []
        # scheduled strictly in the future -> goes through the heap
        sim.call_at(1.0, order.append, "heap")

        def at_one():
            # runs at t=1.0 *before* the heap entry?  No: the heap entry
            # carries an earlier sequence, so it must run first once due.
            order.append("starter")
            sim.call_soon(order.append, "soon")

        # both due at 1.0; the call_at above was scheduled first
        sim.call_at(1.0, at_one)
        sim.run()
        assert order == ["heap", "starter", "soon"]

    def test_daemon_entry_in_fifo_does_not_keep_run_alive(self):
        sim = Simulator()
        order = []

        def root():
            # same instant -> joins the FIFO, but as daemon work
            sim.call_at(sim.now, order.append, "daemon", daemon=True)

        sim.call_soon(root)
        sim.run()
        assert order == []  # run() stopped with only the daemon entry left
        sim.call_soon(order.append, "regular")
        sim.run()
        assert order == ["daemon", "regular"]  # ...and it kept its place

    def test_until_is_honoured_mid_drain(self):
        sim = Simulator()
        order = []

        def root():
            sim.call_soon(order.append, "a")
            sim.call_at(sim.now + 2.0, order.append, "late")
            sim.call_soon(order.append, "b")

        sim.call_at(1.0, root)
        assert sim.run(until=2.0) == 2.0
        assert order == ["a", "b"]
        assert sim.run() == 3.0
        assert order == ["a", "b", "late"]

    def test_nested_same_instant_callbacks_keep_clock(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.call_soon(lambda: seen.append(sim.now))
            sim.call_at(sim.now, lambda: seen.append(sim.now))

        sim.call_at(2.5, outer)
        sim.run()
        assert seen == [2.5, 2.5]
        assert sim.now == 2.5


class TestAgendaCompaction:
    """Lazily-cancelled heap entries must not bloat the agenda forever
    (a cancel-heavy deadline workload used to hold every dead timer
    until its original fire time — and pin the clock there)."""

    def test_cancel_heavy_agenda_stays_bounded(self):
        sim = Simulator()
        fired = []
        handles = [
            sim.call_at(1000.0 + tick, fired.append, tick)
            for tick in range(10_000)
        ]
        # a deadline workload: almost every timer is cancelled long
        # before it fires (the query finished first)
        survivors = set(range(0, 10_000, 100))
        for tick, handle in enumerate(handles):
            if tick not in survivors:
                sim.cancel(handle)
        assert sim.agenda_size < 2_000, (
            "cancelled entries were never compacted out of the agenda"
        )
        sim.run()
        assert fired == sorted(survivors)
        assert sim.now == 1000.0 + max(survivors)
        # only the sub-threshold residue of dead entries may remain
        assert sim.agenda_size < 200

    def test_compaction_keeps_pop_order_and_clock(self):
        sim = Simulator()
        order = []
        keep = [sim.call_at(when, order.append, when)
                for when in (5.0, 1.0, 3.0)]
        drop = [sim.call_at(2.0 + n * 0.001, order.append, -1.0)
                for n in range(200)]
        for handle in drop:
            sim.cancel(handle)
        sim.run()
        assert order == [1.0, 3.0, 5.0]
        assert sim.now == 5.0
        assert keep[0].cancelled is False

    def test_orphaned_timeout_no_longer_pins_the_clock(self):
        """A deadline raced and lost: cancelling its Timeout must let the
        run finish at the real last event, not at the dead deadline."""
        sim = Simulator()

        def winner():
            yield sim.timeout(1.0)

        def racer():
            deadline = sim.timeout(500.0)
            yield sim.any_of([sim.spawn(winner()), deadline])
            deadline.cancel()

        sim.spawn(racer())
        sim.run()
        assert sim.now == 1.0


class TestCallbackDetach:
    """Losing wait targets must not accumulate dead callbacks on
    long-lived shared events (thousands of queries racing deadlines
    against one shutdown event used to leak one callback each)."""

    def test_any_of_detaches_from_losing_children(self):
        sim = Simulator()
        shutdown = sim.event()  # long-lived: never triggers

        def worker():
            for _ in range(50):
                yield sim.any_of([sim.timeout(1.0), shutdown])

        sim.spawn(worker())
        sim.run()
        assert shutdown.callback_count == 0, (
            "AnyOf left stale callbacks on the losing child"
        )

    def test_interrupted_process_detaches_from_wait_target(self):
        sim = Simulator()
        shutdown = sim.event()
        waits = []

        def worker():
            for _ in range(50):
                try:
                    waits.append(sim.now)
                    yield shutdown
                except Interrupt:
                    pass

        process = sim.spawn(worker())

        def driver():
            for _ in range(50):
                yield sim.timeout(1.0)
                process.interrupt("rebalance")

        sim.spawn(driver())
        sim.run()
        assert len(waits) == 50
        assert shutdown.callback_count == 0, (
            "interrupted process left its stale wakeup registered"
        )

    def test_all_of_still_collects_every_child(self):
        sim = Simulator()
        events = [sim.event() for _ in range(3)]
        seen = []

        def waiter():
            values = yield sim.all_of(events)
            seen.append(values)

        sim.spawn(waiter())

        def driver():
            for n, event in enumerate(events):
                yield sim.timeout(1.0)
                event.trigger(n)

        sim.spawn(driver())
        sim.run()
        assert seen == [[0, 1, 2]]


class TestConditionJoins:
    """``AllOf`` / ``AnyOf`` count their children off synchronously."""

    def test_callback_count_includes_joins(self):
        # otherwise test_any_of_detaches_from_losing_children passes
        # vacuously: AnyOf no longer registers through add_callback
        sim = Simulator()
        shutdown, gate = sim.event(), sim.event()
        race = sim.any_of([sim.timeout(1.0), shutdown])
        both = sim.all_of([gate, shutdown])
        assert shutdown.callback_count == 2
        assert gate.callback_count == 1
        sim.run()
        assert race.triggered and not both.triggered
        assert shutdown.callback_count == 1  # only AllOf's join is left

    def test_a_child_firing_costs_no_agenda_entry(self):
        sim = Simulator()
        children = [sim.event() for _ in range(3)]
        both = sim.all_of(children)
        for child in children:
            child.trigger(None)
        # nobody waits on the condition: nothing was scheduled at all
        assert both.triggered
        assert sim.run() == 0.0 and not sim._soon

    def test_all_of_over_triggered_children_is_born_triggered(self):
        sim = Simulator()
        children = [sim.event() for _ in range(3)]
        for position in (2, 0, 1):
            children[position].trigger(f"v{position}")
        seen = []

        def waiter():
            yield sim.timeout(1.0)
            condition = sim.all_of(children)
            assert condition.triggered
            assert condition.value == ["v0", "v1", "v2"]
            values = yield condition
            seen.append((sim.now, values))

        sim.spawn(waiter())
        sim.run()
        assert seen == [(1.0, ["v0", "v1", "v2"])]
        assert [child.callback_count for child in children] == [0, 0, 0]

    def test_all_of_counts_triggered_children_off_and_keeps_order(self):
        sim = Simulator()
        early, late = sim.event(), sim.event()
        early.trigger("early")
        condition = sim.all_of([late, early, late])
        assert not condition.triggered
        late.trigger("late")
        assert condition.triggered
        assert condition.value == ["late", "early", "late"]

    def test_any_of_over_triggered_child_is_born_triggered(self):
        sim = Simulator()
        pending, first, second = sim.event(), sim.event(), sim.event()
        second.trigger("second")
        first.trigger("first")
        seen = []

        def waiter():
            yield sim.timeout(1.0)
            race = sim.any_of([pending, first, second])
            assert race.triggered and race.value == (1, "first")
            seen.append((sim.now, (yield race)))

        sim.spawn(waiter())
        sim.run()
        assert seen == [(1.0, (1, "first"))]
        assert pending.callback_count == 0  # never registered on the loser

    def test_any_of_detaches_its_join_from_every_loser(self):
        sim = Simulator()
        losers = [sim.event() for _ in range(3)]
        winner = sim.event()
        race = sim.any_of(losers[:2] + [winner] + losers[2:])
        assert [loser.callback_count for loser in losers] == [1, 1, 1]
        winner.trigger("won")
        assert race.triggered and race.value == (2, "won")
        assert [loser.callback_count for loser in losers] == [0, 0, 0]
        losers[0].trigger("too late")  # must not re-trigger the race
        sim.run()
        assert race.value == (2, "won")

    def test_same_child_listed_twice(self):
        sim = Simulator()
        child = sim.event()
        race = sim.any_of([child, child])
        both = sim.all_of([child, child])
        child.trigger("x")
        assert race.value == (0, "x")
        assert both.value == ["x", "x"]

    def test_interrupt_while_waiting_on_all_of_resumes_once(self):
        sim = Simulator()
        children = [sim.event(), sim.event()]
        log = []

        def waiter():
            try:
                yield sim.all_of(children)
                log.append("unexpected")
            except Interrupt:
                log.append(("interrupted", sim.now))
            # the abandoned AllOf fires while we sleep here
            yield sim.timeout(5.0)
            log.append(("slept", sim.now))

        process = sim.spawn(waiter())

        def driver():
            yield sim.timeout(1.0)
            process.interrupt("test")
            yield sim.timeout(1.0)
            for child in children:
                child.trigger(None)

        sim.spawn(driver())
        sim.run()
        assert log == [("interrupted", 1.0), ("slept", 6.0)]


class _ThreeLoopBandwidth:
    """The processor-sharing link as it stood before the passes were
    fused: ``_update`` (advance), ``_reschedule`` (cancel + argmin +
    re-arm) and ``_on_timer`` (advance, split, reschedule) each walk the
    transfer list on their own.  Kept as the reference the fused
    :class:`Bandwidth` is held against."""

    class _Transfer:
        __slots__ = ("remaining", "event", "category")

        def __init__(self, remaining, event, category):
            self.remaining = remaining
            self.event = event
            self.category = category

    def __init__(self, sim: Simulator, rate_bytes_per_s: float):
        self.sim = sim
        self.rate = float(rate_bytes_per_s)
        self._active: List = []
        self._last_update = sim.now
        self._timer = None
        self._timer_target = None
        self.bytes_moved = 0.0
        self.busy_time = 0.0
        self.categorized: Dict[str, float] = {}

    def transfer(self, nbytes: float, category: Optional[str] = None) -> Event:
        event = Event(self.sim)
        if nbytes <= _EPSILON_BYTES:
            event.trigger(None)
            return event
        self._update()
        self._active.append(self._Transfer(float(nbytes), event, category))
        self._reschedule()
        return event

    def set_rate(self, rate_bytes_per_s: float) -> None:
        self._update()
        self.rate = float(rate_bytes_per_s)
        self._reschedule()

    def progressed_bytes(self) -> float:
        # a pure read, as the link's own: the credit an update would
        # make now, without storing it
        moved = self.bytes_moved
        elapsed = self.sim.now - self._last_update
        if elapsed > 0 and self._active:
            share = elapsed * self.rate / len(self._active)
            for item in self._active:
                moved += share if share < item.remaining else item.remaining
        return moved

    def _update(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        share = elapsed * self.rate / len(self._active)
        for item in self._active:
            remaining = item.remaining
            progressed = share if share < remaining else remaining
            item.remaining -= progressed
            self.bytes_moved += progressed
            if item.category is not None:
                self.categorized[item.category] = (
                    self.categorized.get(item.category, 0.0) + progressed
                )
        self.busy_time += elapsed

    def _reschedule(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
            self._timer_target = None
        if not self._active:
            return
        shortest = self._active[0]
        smallest = shortest.remaining
        for item in self._active:
            if item.remaining < smallest:
                smallest = item.remaining
                shortest = item
        delay = smallest * len(self._active) / self.rate
        self._timer_target = shortest
        self._timer = self.sim.call_at(self.sim.now + delay, self._on_timer)

    def _on_timer(self) -> None:
        target, self._timer = self._timer_target, None
        self._timer_target = None
        self._update()
        finished, active = [], []
        for item in self._active:
            if item is target or item.remaining <= _EPSILON_BYTES:
                residue = item.remaining
                if residue > 0:
                    self.bytes_moved += residue
                    if item.category is not None:
                        self.categorized[item.category] = (
                            self.categorized.get(item.category, 0.0) + residue
                        )
                    item.remaining = 0.0
                finished.append(item)
            else:
                active.append(item)
        self._active = active
        self._reschedule()
        for item in finished:
            item.event.trigger(None)


class _CountingSimulator(Simulator):
    """Counts timer traffic: the fused link must arm and cancel exactly
    as often (``simulate.events_cancelled`` is compared exactly)."""

    def __init__(self):
        super().__init__()
        self.armed = 0
        self.withdrawn = 0

    def call_at(self, *args, **kwargs):
        self.armed += 1
        return super().call_at(*args, **kwargs)

    def cancel(self, handle):
        if not (handle.cancelled or handle.executed):
            self.withdrawn += 1
        super().cancel(handle)


# sizes that tie, differ in the last digits, sit at the epsilon edge, or
# are large enough (a 20 GB table's logical bytes) that one ulp of
# rounding residue exceeds epsilon — there a tie's loser outlives the
# tick, so which transfer the timer targets becomes visible
_SIZES = st.one_of(
    st.sampled_from([50.0, 50.0, 100.0, 100.0000001, 33.333, 1e-7, 1e-6,
                     1.5e-6, 2e-6, 0.0, 2e10, 2e10, 2e11 / 3.0, 5e11, 5e11]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e9, max_value=1e12, allow_nan=False),
)
# gaps that make operations coincide with each other and with completions
_GAPS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0 / 3.0]),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
_OPERATIONS = st.lists(
    st.tuples(
        _GAPS,
        st.one_of(
            st.tuples(st.just("admit"), _SIZES,
                      st.sampled_from([None, "read", "write"])),
            st.tuples(st.just("set_rate"),
                      st.sampled_from([1.0, 64.0, 100.0, 117e6, 1e9 / 7.0])),
            st.tuples(st.just("probe")),
        ),
    ),
    min_size=1, max_size=40,
)


def _drive(link_class, operations):
    """Run *operations* against one link; everything a caller of the
    link can see, as exact reprs."""
    sim = _CountingSimulator()
    link = link_class(sim, 100.0)
    seen = []

    def driver():
        for index, (gap, operation) in enumerate(operations):
            yield sim.timeout(gap)
            if operation[0] == "admit":
                link.transfer(operation[1], operation[2]).add_callback(
                    lambda _value, _index=index: seen.append(
                        ("done", _index, repr(sim.now))
                    )
                )
            elif operation[0] == "set_rate":
                link.set_rate(operation[1])
            elif operation[0] == "probe":
                seen.append(("probe", index, repr(link.progressed_bytes())))

    sim.spawn(driver())
    sim.run()
    return (
        seen,
        repr(link.bytes_moved),
        [(name, repr(value)) for name, value in link.categorized.items()],
        repr(link.busy_time),
        len(link._active),
        sim.armed,
        sim.withdrawn,
        repr(sim.now),
    )


class TestBandwidthFusedPass:
    @settings(max_examples=400, deadline=None)
    @given(_OPERATIONS)
    def test_identical_to_three_loop_reference(self, operations):
        assert _drive(Bandwidth, operations) == _drive(
            _ThreeLoopBandwidth, operations
        )

    @settings(max_examples=400, deadline=None)
    @given(_OPERATIONS)
    def test_probes_move_nothing(self, operations):
        """A sampler's read is an observer: the run with its ``probe``
        steps equals the same run with each probe an empty step, in
        every completion time, counter and timer."""
        quiet = [(gap, ("wait",) if operation[0] == "probe" else operation)
                 for gap, operation in operations]
        probed, plain = _drive(Bandwidth, operations), _drive(Bandwidth, quiet)
        assert [seen for seen in probed[0] if seen[0] == "done"] == plain[0]
        assert probed[1:] == plain[1:]

    def test_idle_link_fast_path_matches_reference(self):
        # one transfer at a time: every admit finds the link idle
        operations = [(0.5, ("admit", size, "read"))
                      for size in (10.0, 1e-6 + 1e-9, 33.333)]
        operations = [
            step for admit in operations
            for step in (admit, (7.0, ("probe",)))
        ]
        assert _drive(Bandwidth, operations) == _drive(
            _ThreeLoopBandwidth, operations
        )
