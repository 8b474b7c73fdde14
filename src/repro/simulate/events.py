"""Minimal deterministic discrete-event kernel.

A hand-rolled SimPy-like core: a binary-heap agenda of timestamped
callbacks, :class:`Event` objects that processes can wait on, and
:class:`Process` coroutines (plain generators) that ``yield`` events to
block.  Everything is deterministic: ties on the clock are broken by a
monotonically increasing sequence number, never by object identity.

Example
-------
>>> sim = Simulator()
>>> def worker(sim, out):
...     yield sim.timeout(2.0)
...     out.append(sim.now)
>>> collected = []
>>> _ = sim.spawn(worker(sim, collected))
>>> sim.run()
>>> collected
[2.0]
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

from repro.common.errors import ExecutionError

# Compact the agenda heap once at least this many cancelled entries are
# buried in it *and* they make up at least half of the heap.  The floor
# keeps small simulations on the cheap lazy-skip path; the fraction
# bounds the heap at ~2x the live entry count for cancel-heavy
# workloads (deadline timers, bandwidth rescheduling).
_COMPACT_MIN_CANCELLED = 64


class Interrupt(Exception):
    """Thrown into a process that another process interrupted."""

    def __init__(self, cause: object = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* at most once, carrying an optional value.
    Callbacks added after triggering fire immediately (at the current
    simulated instant), which makes waiting race-free.

    Callbacks are stored as ``(callable, extra_args)`` pairs and invoked
    as ``callable(value, *extra_args)``.  Passing context through
    *extra_args* instead of a fresh closure keeps registration cheap and
    — more importantly — makes callbacks *removable*: a waiter that
    abandons the event (an interrupted process, an ``AnyOf`` race whose
    winner was someone else) can detach itself so long-lived events do
    not accumulate stale entries across thousands of waits.

    A condition (:class:`AllOf` / :class:`AnyOf`) registers on its
    children as a *join*, stored in the same list as ``(None,
    (condition, position))``.  :meth:`trigger` runs a join on the spot
    instead of giving it an agenda entry: counting a child off is
    bookkeeping no process can observe.  When the count completes the
    condition triggers there and then, so its waiters' wakeups take the
    FIFO position the join's own hop used to occupy.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: List[Tuple[Callable[..., None], tuple]] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> "Event":
        if self.triggered:
            raise ExecutionError("event triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback, extra in callbacks:
            if callback is None:
                extra[0]._child_fired(value, extra[1])
            else:
                self.sim.call_soon(callback, value, *extra)
        return self

    def add_callback(self, callback: Callable[..., None], *extra: Any) -> None:
        if self.triggered:
            self.sim.call_soon(callback, self.value, *extra)
        else:
            self._callbacks.append((callback, extra))

    def remove_callback(self, callback: Callable[..., None], *extra: Any) -> None:
        """Detach a previously added callback (no-op when absent).

        Only callbacks that would be no-ops may be removed — removal
        never reorders the survivors, so deterministic callback FIFO
        order is preserved.
        """
        try:
            self._callbacks.remove((callback, extra))
        except ValueError:
            pass

    def _add_join(self, condition: "Event", position: int) -> None:
        """Register *condition* (which checked we have not triggered) to
        have ``_child_fired(value, position)`` run by :meth:`trigger`."""
        self._callbacks.append((None, (condition, position)))

    def _remove_join(self, condition: "Event", position: int) -> None:
        self.remove_callback(None, condition, position)

    @property
    def callback_count(self) -> int:
        """Number of callbacks and joins still registered (leak
        introspection)."""
        return len(self._callbacks)


class Timeout(Event):
    """An event that triggers *delay* seconds in the future."""

    __slots__ = ("handle",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim)
        if delay < 0:
            raise ExecutionError(f"negative timeout: {delay}")
        self.handle = sim.call_at(sim.now + delay, self.trigger, value)

    def cancel(self) -> None:
        """Withdraw the pending trigger (no-op once fired).

        A race loser (e.g. an orphaned deadline timer) that is never
        cancelled keeps its agenda entry as regular pending work, so the
        simulation cannot stop before the timer's due time even though
        nobody is waiting — cancel it to release the agenda immediately.
        """
        self.sim.cancel(self.handle)


class AllOf(Event):
    """Triggers when every child event has triggered; value is their list.

    Children that have already triggered are counted off in the
    constructor; if that is all of them the condition is born triggered.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._values: List[Any] = [None] * len(events)
        self._pending = 0
        for position, event in enumerate(events):
            if event.triggered:
                self._values[position] = event.value
            else:
                self._pending += 1
                event._add_join(self, position)
        if not self._pending:
            self.trigger(self._values)

    def _child_fired(self, value: Any, position: int) -> None:
        self._values[position] = value
        self._pending -= 1
        if not self._pending:
            self.trigger(self._values)


class AnyOf(Event):
    """Triggers when the first child triggers; value is (index, value).

    A child that has already triggered decides the race in the
    constructor (the first such child in list order wins).
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        if not events:
            raise ExecutionError("AnyOf requires at least one event")
        self._children: List[Event] = []
        for position, event in enumerate(events):
            if event.triggered:
                self.trigger((position, event.value))
                return
        self._children = events
        for position, event in enumerate(events):
            event._add_join(self, position)

    def _child_fired(self, value: Any, position: int) -> None:
        children, self._children = self._children, []
        if not children:
            return  # decided already: the winner was listed twice
        # The race is decided: detach from every loser so repeated races
        # against a long-lived event (per-query deadline guards, session
        # shutdown latches) do not pile stale joins onto it.
        for lost, child in enumerate(children):
            if lost != position and not child.triggered:
                child._remove_join(self, lost)
        self.trigger((position, value))


class Process(Event):
    """A coroutine driven by the simulator.

    The generator yields :class:`Event` objects; the process resumes with
    the event's value.  When the generator returns, the process (itself an
    event) triggers with the return value, so processes can be joined by
    yielding them.
    """

    __slots__ = ("name", "_generator", "_waiting_on", "_interrupt", "span")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupt: Optional[Interrupt] = None
        # opt-in tracing: when the simulator carries a tracer, every
        # process lifetime becomes a span in simulated time
        self.span = None
        if sim.tracer is not None:
            self.span = sim.tracer.start(
                self.name, start=sim.now, category="process"
            )
        sim.call_soon(self._step, None)

    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if not self.alive:
            return
        self._interrupt = Interrupt(cause)
        self.sim.call_soon(self._step, None)

    def _wakeup(self, value: Any, event: Optional[Event]) -> None:
        """Resume the generator: the callback registered on the wait
        target *event* (and, from :meth:`_step`, the first step).

        After an interrupt the abandoned event may still fire and call
        back into us; if our *new* wait target happens to be triggered
        already, an unbound resume would run the process twice at the
        same instant.  Binding the wakeup to the event it was registered
        on makes stale wakeups exactly identifiable.
        """
        if event is not self._waiting_on:
            return
        # a pending interrupt takes this resume; its own hop then finds
        # nothing left to deliver
        interrupt, self._interrupt = self._interrupt, None
        self._waiting_on = None
        try:
            if interrupt is None:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(interrupt)
        except StopIteration as stop:
            if self.span is not None and not self.span.closed:
                self.span.finish(self.sim.now)
            self.trigger(getattr(stop, "value", None))
            return
        except Interrupt:
            if self.span is not None and not self.span.closed:
                self.span.finish(self.sim.now, interrupted=True)
            self.trigger(None)
            return
        if not isinstance(target, Event):
            raise ExecutionError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event objects"
            )
        self._waiting_on = target
        target.add_callback(self._wakeup, target)

    def _step(self, value: Any) -> None:
        """The hop ``spawn`` and ``interrupt`` schedule: start the
        generator, or throw the pending interrupt into it."""
        if self.triggered:
            return
        waited = self._waiting_on
        if waited is not None:
            if self._interrupt is None:
                if not waited.triggered:
                    return  # spurious call
                value = waited.value
            elif not waited.triggered:
                # Abandoning an untriggered event: detach our wakeup so
                # an interrupt-heavy workload does not leak one stale
                # callback per wait onto long-lived events.  (If it
                # already triggered the callback list was drained; the
                # queued wakeup then hits the identity guard above and
                # no-ops.)
                waited.remove_callback(self._wakeup, waited)
        self._wakeup(value, waited)


class ScheduledCall:
    """Handle for one agenda entry; supports O(1) cancellation."""

    __slots__ = ("daemon", "callback", "args", "cancelled", "executed", "in_heap")

    def __init__(self, daemon: bool, callback: Callable, args: tuple):
        self.daemon = daemon
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.executed = False
        self.in_heap = False


class Simulator:
    """The event loop: a clock plus a heap of pending callbacks.

    *tracer* (a :class:`repro.obs.Tracer`, optional) turns on process
    lifetime tracing: every spawned coroutine becomes a span from spawn
    to completion, in simulated time.  Off by default — the engines
    trace at job/task granularity instead.
    """

    def __init__(self, tracer=None):
        self.now: float = 0.0
        self.tracer = tracer
        self._agenda: List = []
        # same-instant callbacks bypass the heap: a plain FIFO is both
        # faster and order-equivalent (every entry appended here carries
        # a later logical sequence than anything already in the heap at
        # the current clock value, because due heap entries drain first)
        self._soon: Deque[ScheduledCall] = deque()
        self._sequence = 0
        self._process_count = 0
        self._pending_regular = 0
        self._cancelled_in_agenda = 0

    @property
    def agenda_size(self) -> int:
        """Heap entries still held (live plus not-yet-compacted dead)."""
        return len(self._agenda)

    # -- scheduling primitives ----------------------------------------------
    def call_at(
        self, when: float, callback: Callable, *args: Any, daemon: bool = False
    ) -> ScheduledCall:
        """Schedule *callback(*args)* at time *when*; returns a cancellable
        handle.

        Daemon callbacks (periodic samplers, watchdogs) never keep the
        simulation alive: :meth:`run` stops once only daemon work remains.
        """
        if when < self.now - 1e-12:
            raise ExecutionError(f"cannot schedule in the past ({when} < {self.now})")
        handle = ScheduledCall(daemon, callback, args)
        if not daemon:
            self._pending_regular += 1
        if when <= self.now:
            self._soon.append(handle)
        else:
            self._sequence += 1
            handle.in_heap = True
            heapq.heappush(self._agenda, (when, self._sequence, handle))
        return handle

    def cancel(self, handle: ScheduledCall) -> None:
        """Cancel a scheduled call; the agenda entry is skipped lazily.

        Cancelling a handle whose callback already ran is a no-op: the
        pending-work counter was consumed when the call executed, so a
        post-fire cancel must not decrement it again (that would make
        :meth:`run` stop early with regular work still on the agenda).

        Lazily-cancelled heap entries are counted, and once they are
        both numerous (>= ``_COMPACT_MIN_CANCELLED``) and the majority
        of the heap, the agenda is compacted in one O(n) pass — without
        this, cancel-heavy workloads (10k deadline timers, bandwidth
        rescheduling) grow the heap without bound and every push/pop
        pays log of the garbage, not log of the live work.
        """
        if handle.cancelled or handle.executed:
            return
        handle.cancelled = True
        handle.callback = handle.args = None  # it never runs: let go
        if not handle.daemon:
            self._pending_regular -= 1
        if handle.in_heap:
            self._cancelled_in_agenda += 1
            if (
                self._cancelled_in_agenda >= _COMPACT_MIN_CANCELLED
                and self._cancelled_in_agenda * 2 >= len(self._agenda)
            ):
                self._compact_agenda()

    def _compact_agenda(self) -> None:
        """Drop cancelled entries and re-heapify.

        Determinism-safe: pop order of a binary heap is the sorted order
        of its ``(when, sequence)`` keys, which filtering dead entries
        does not change.  The list is mutated *in place* — :meth:`run`
        holds a local alias to it, so rebinding would fork the agenda.
        """
        self._agenda[:] = [entry for entry in self._agenda if not entry[2].cancelled]
        heapq.heapify(self._agenda)
        self._cancelled_in_agenda = 0

    def call_soon(self, callback: Callable, *args: Any) -> ScheduledCall:
        """Schedule *callback(*args)* at the current instant (FIFO)."""
        handle = ScheduledCall(False, callback, args)
        self._pending_regular += 1
        self._soon.append(handle)
        return handle

    # -- user API --------------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        self._process_count += 1
        return Process(self, generator, name or f"proc-{self._process_count}")

    def run(self, until: Optional[float] = None) -> float:
        """Drain the agenda; returns the final clock value.

        Stops when no *regular* (non-daemon) work remains, or — with
        *until* — once the clock would pass it (the clock is then set
        exactly to *until*).
        """
        agenda = self._agenda
        soon = self._soon
        heappop = heapq.heappop
        while self._pending_regular > 0:
            if agenda and agenda[0][0] <= self.now:
                # heap entries due at the current instant run before
                # anything in the FIFO: they were scheduled earlier
                # (lower sequence)
                handle = heappop(agenda)[2]
                if handle.cancelled:
                    self._cancelled_in_agenda -= 1
                    continue
            elif soon:
                # Nothing run from the FIFO can make the heap head due —
                # the clock stands still and a ``call_at`` for this
                # instant joins the FIFO — so drain without looking at
                # the heap again.
                while soon and self._pending_regular > 0:
                    handle = soon.popleft()
                    if handle.cancelled:
                        continue
                    handle.executed = True
                    if not handle.daemon:
                        self._pending_regular -= 1
                    callback, args = handle.callback, handle.args
                    handle.callback = handle.args = None
                    callback(*args)
                continue
            elif agenda:
                when, _seq, handle = agenda[0]
                if handle.cancelled:
                    heappop(agenda)  # skip without touching the clock
                    self._cancelled_in_agenda -= 1
                    continue
                if until is not None and when > until:
                    self.now = until
                    return self.now
                heappop(agenda)
                self.now = when
            else:
                break
            handle.executed = True
            if not handle.daemon:
                self._pending_regular -= 1
            # an executed entry lets go of its callback, so a Timeout ->
            # ScheduledCall -> bound trigger cycle dies by reference
            # counting instead of waiting for the cyclic collector
            callback, args = handle.callback, handle.args
            handle.callback = handle.args = None
            callback(*args)
        if until is not None and until > self.now:
            self.now = until
        return self.now
