"""Simulated resources: CPU slots, processor-shared bandwidth, memory.

* :class:`SlotPool` — counting semaphore with a FIFO wait queue; models
  Hadoop map/reduce slots and DataMPI task slots (4 per node in the paper's
  testbed).
* :class:`Bandwidth` — a processor-sharing link: all active transfers share
  the rate equally, completions are rescheduled whenever membership changes.
  Models the SATA disk (~100 MB/s) and each direction of the GigE NIC
  (~117 MB/s).
* :class:`MemoryAccount` — byte-level accounting with peak tracking; the
  engines consult it to decide when buffers spill.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.errors import ExecutionError
from repro.simulate.events import Event, Simulator

_EPSILON_BYTES = 1e-6


class SlotPool:
    """A counting semaphore; ``acquire`` returns an Event, FIFO order."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "slots"):
        if capacity < 1:
            raise ExecutionError(f"slot pool needs capacity >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Returns an event that triggers once a slot is held."""
        event = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.trigger(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise ExecutionError(f"release on idle slot pool {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.trigger(self)  # slot passes directly to the next waiter
        else:
            self.in_use -= 1

    def cancel_acquire(self, event: Event) -> None:
        """Withdraw an ``acquire`` whose waiter was interrupted.

        If the event is still queued it is simply removed; if the slot
        was already handed over (the event triggered) it is released on
        behalf of the dead process, so interrupting a waiter never leaks
        a slot.
        """
        try:
            self._waiters.remove(event)
            return
        except ValueError:
            pass
        if event.triggered:
            self.release()

    @property
    def queued(self) -> int:
        return len(self._waiters)


class _Transfer:
    __slots__ = ("remaining", "event", "category")

    def __init__(self, remaining: float, event: Event, category: Optional[str]):
        self.remaining = remaining
        self.event = event
        self.category = category


class Bandwidth:
    """Processor-sharing link: N active transfers each progress at rate/N.

    ``transfer(nbytes)`` returns an event that triggers when the bytes have
    moved.  Byte counters and a busy-time integral feed the metrics sampler.
    """

    def __init__(self, sim: Simulator, rate_bytes_per_s: float, name: str = "link"):
        if rate_bytes_per_s <= 0:
            raise ExecutionError(f"bandwidth rate must be positive: {rate_bytes_per_s}")
        self.sim = sim
        self.rate = float(rate_bytes_per_s)
        self.name = name
        self._active: List[_Transfer] = []
        self._last_update = sim.now
        self._timer = None
        self._timer_target: Optional[_Transfer] = None
        self.bytes_moved = 0.0
        self.busy_time = 0.0
        self.categorized: Dict[str, float] = {}

    # -- public API -----------------------------------------------------------
    def transfer(self, nbytes: float, category: Optional[str] = None) -> Event:
        event = Event(self.sim)
        if nbytes <= _EPSILON_BYTES:
            event.trigger(None)
            return event
        item = _Transfer(float(nbytes), event, category)
        if self._active:
            shortest = self._advance()
            if item.remaining < shortest.remaining:
                shortest = item
        else:
            # idle link: nothing to advance, the newcomer is the argmin
            self._last_update = self.sim.now
            shortest = item
        self._active.append(item)
        self._arm(shortest)
        return event

    def set_rate(self, rate_bytes_per_s: float) -> None:
        """Change the link rate mid-flight (hardware degradation windows).

        In-progress transfers keep the bytes they already moved and
        continue at the new shared rate.
        """
        if rate_bytes_per_s <= 0:
            raise ExecutionError(f"bandwidth rate must be positive: {rate_bytes_per_s}")
        shortest = self._advance()
        self.rate = float(rate_bytes_per_s)
        self._arm(shortest)

    @property
    def active_transfers(self) -> int:
        return len(self._active)

    def progressed_bytes(self, category: Optional[str] = None) -> float:
        """Bytes moved up to the current instant — all of them, or those
        of one *category* (for samplers).

        A pure read: it adds the credit a pass would make now, transfer
        by transfer in admission order as :meth:`_advance` does, without
        storing it.  Storing it would split one pass's credit in two and
        re-round every ``remaining``, so an observer would move the
        completion times it observes.
        """
        moved = (self.bytes_moved if category is None
                 else self.categorized.get(category, 0.0))
        elapsed = self.sim.now - self._last_update
        if elapsed > 0 and self._active:
            share = elapsed * self.rate / len(self._active)
            for item in self._active:
                if category is None or item.category == category:
                    remaining = item.remaining
                    moved += share if share < remaining else remaining
        return moved

    # -- internals ------------------------------------------------------------
    def _advance(
        self,
        target: Optional[_Transfer] = None,
        finished: Optional[List[_Transfer]] = None,
    ) -> Optional[_Transfer]:
        """The link's one pass over its transfers: credit every transfer
        its share of the time since the last pass and return the one
        with the least left (the first such in admission order).

        Given a *finished* list (the timer tick), transfers that are
        done — the timer's *target* and any other whose remainder fell
        below epsilon — move to it instead of staying active.

        The float operations and their order are the cost model: each
        counter accumulates transfer by transfer in admission order, and
        residues of finished transfers are credited by the caller only
        after the whole pass, so ``bytes_moved`` and ``categorized`` are
        the same sums as ever.
        """
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        active = self._active
        shortest = None
        smallest = math.inf
        if elapsed > 0 and active:
            share = elapsed * self.rate / len(active)
            categorized = self.categorized
            moved = self.bytes_moved
            for item in active:
                remaining = item.remaining
                progressed = share if share < remaining else remaining
                remaining -= progressed
                item.remaining = remaining
                moved += progressed
                category = item.category
                if category is not None:
                    categorized[category] = (
                        categorized.get(category, 0.0) + progressed
                    )
                if finished is not None and (
                    item is target or remaining <= _EPSILON_BYTES
                ):
                    finished.append(item)
                # strict "<": ties go to the earliest admitted transfer
                elif remaining < smallest:
                    smallest = remaining
                    shortest = item
            self.bytes_moved = moved
            self.busy_time += elapsed
            if finished:
                for item in finished:  # survivors keep admission order
                    active.remove(item)
        else:
            # no time has passed since the last pass (an admit right
            # after a tick, a tick coinciding with an admit): nothing to
            # credit, only the split and the argmin
            if finished is not None:
                finished.extend(
                    item for item in active
                    if item is target or item.remaining <= _EPSILON_BYTES
                )
                for item in finished:
                    active.remove(item)
            for item in active:
                if item.remaining < smallest:
                    smallest = item.remaining
                    shortest = item
        return shortest

    def _arm(self, shortest: Optional[_Transfer]) -> None:
        """Point the completion timer at *shortest* (None: link idle)."""
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        self._timer_target = shortest
        if shortest is None:
            return
        delay = shortest.remaining * len(self._active) / self.rate
        self._timer = self.sim.call_at(self.sim.now + delay, self._on_timer)

    def _on_timer(self) -> None:
        target, self._timer = self._timer_target, None
        finished: List[_Transfer] = []
        shortest = self._advance(target, finished)
        # every transfer that finishes in this tick — the timer target
        # *and* any other whose remainder fell below epsilon — must have
        # its float residue credited to the counters, otherwise
        # bytes_moved/categorized drift below the true byte count
        for item in finished:
            residue = item.remaining
            if residue > 0:
                self.bytes_moved += residue
                if item.category is not None:
                    self.categorized[item.category] = (
                        self.categorized.get(item.category, 0.0) + residue
                    )
                item.remaining = 0.0
        self._arm(shortest)
        for item in finished:
            item.event.trigger(None)


class MemoryAccount:
    """Byte-level memory accounting with peak tracking.

    Allocation never blocks — the engines make spill decisions themselves —
    but over-free is an error, which catches accounting bugs in tests.
    """

    def __init__(self, capacity_bytes: float, name: str = "mem"):
        self.capacity = float(capacity_bytes)
        self.name = name
        self.used = 0.0
        self.peak = 0.0

    def allocate(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ExecutionError("negative allocation")
        self.used += nbytes
        if self.used > self.peak:
            self.peak = self.used

    def free(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ExecutionError("negative free")
        if nbytes > self.used + _EPSILON_BYTES:
            raise ExecutionError(
                f"over-free on {self.name!r}: freeing {nbytes}, used {self.used}"
            )
        self.used = max(0.0, self.used - nbytes)

    @property
    def available(self) -> float:
        return max(0.0, self.capacity - self.used)

    @property
    def utilization(self) -> float:
        return self.used / self.capacity if self.capacity else 0.0
