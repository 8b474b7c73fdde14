"""DataMPI buffer manager (paper §IV-C, Fig 7): the per-O-rank Send
Partition List, whose full partitions become :class:`SendBuffer`\ s;
the bounded :class:`SendQueue` between computation and communication
(``hive.datampi.sendqueue``, Fig 8 right: a full queue blocks the O
rank); the A-side :class:`ReceiveManager`, which caches delivered
buffers up to the ``hive.datampi.memusedpercent`` budget and spills the
rest to local disk (Fig 8 left).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.common.errors import ExecutionError
from repro.common.kv import Segments, split_positions
from repro.simulate.cluster import Node
from repro.simulate.events import Event, Simulator

_EPSILON_BYTES = 1e-6


@dataclass
class SendBuffer:
    """One full send partition: the unit the shuffle engine transmits."""

    partition: int
    segments: Segments = field(default_factory=Segments)  # its pairs
    actual_bytes: int = 0
    scale: float = 1.0  # stamped by the O task when the buffer is emitted
    sender: int = -1  # emitting O task index, stamped with scale
    seq: int = -1  # per-sender emission sequence, stamped with scale

    @property
    def logical_bytes(self) -> float:
        return self.actual_bytes * self.scale


class SendPartitionList:
    """Partition-indexed accumulation buffers (the SPL of Fig 7)."""

    def __init__(self, num_partitions: int, partition_capacity_bytes: float):
        if num_partitions < 1:
            raise ExecutionError("SPL needs at least one partition")
        self.num_partitions = num_partitions
        # byte counts are whole numbers: a buffer holding this many has
        # reached the (float) capacity
        self._full_at = math.ceil(partition_capacity_bytes)
        self._buffers = [SendBuffer(partition=i) for i in range(num_partitions)]
        self.bytes_added = 0

    def add_many(self, partition_ids, run, on_full) -> None:
        """Append the pairs of *run* (pair *i* to ``partition_ids[i]``).

        A buffer closes on the pair that takes its bytes to the
        capacity; where that happens is found per partition from prefix
        sums, and the closed buffers go to *on_full* in the order of
        their closing pairs in the emit stream — the buffers, and the
        order, adding pair by pair produces.
        """
        buffers = self._buffers
        full_at = self._full_at
        closed: List[Tuple[int, SendBuffer]] = []  # (closing pair, buffer)
        for partition, positions in split_positions(partition_ids, self.num_partitions):
            buffer = buffers[partition]
            count = len(positions)
            filled = list(accumulate(run.sizes_at(positions)))
            start = 0  # first pair of the open buffer
            before = -buffer.actual_bytes  # bytes of this call in front of it
            while True:
                last = bisect_left(filled, full_at + before, start)
                if last >= count:
                    break
                buffer.segments.add(run, positions[start:last + 1])
                buffer.actual_bytes = filled[last] - before
                closed.append((positions[last], buffer))
                buffer = buffers[partition] = SendBuffer(partition=partition)
                start = last + 1
                before = filled[last]
            if start < count:
                buffer.segments.add(run, positions[start:])
                buffer.actual_bytes = filled[-1] - before
        self.bytes_added += sum(run.sizes)
        closed.sort(key=itemgetter(0))
        for _position, buffer in closed:
            on_full(buffer)

    def drain(self) -> List[SendBuffer]:
        """Remaining non-empty partial buffers (task close); an empty
        buffer stays where it is."""
        buffers = self._buffers
        out = [buffer for buffer in buffers if buffer.segments]
        for buffer in out:
            buffers[buffer.partition] = SendBuffer(partition=buffer.partition)
        return out


class SendQueue:
    """Bounded FIFO between computation and communication threads.

    A buffer that fits is admitted (or handed to a waiting sender) on
    the spot; an :class:`Event` is made only for a caller that must
    wait.  A slot frees when the shuffle engine reports the transfer
    finished.
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise ExecutionError("send queue capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[SendBuffer] = deque()
        self.handed = 0  # popped by the sender, transfer not yet started
        self.in_flight = 0
        self._put_waiters: Deque[Tuple[Event, SendBuffer]] = deque()
        self._get_waiters: Deque[Event] = deque()

    def put(self, buffer: SendBuffer) -> Optional[Event]:
        """``None`` once *buffer* is admitted, or (the queue is full) an
        event that triggers when it is."""
        if self.backlog < self.capacity:
            self._admit(buffer)
            return None
        event = Event(self.sim)
        self._put_waiters.append((event, buffer))
        return event

    def get(self) -> Union[SendBuffer, Event]:
        """The next buffer (for the sender thread), or — none is queued —
        an event that yields it."""
        if self.items:
            self.handed += 1
            return self.items.popleft()
        event = Event(self.sim)
        self._get_waiters.append(event)
        return event

    def transfer_started(self) -> None:
        """The sender began transmitting a buffer it previously got."""
        if self.handed <= 0:
            raise ExecutionError("transfer_started without a pending get")
        self.handed -= 1
        self.in_flight += 1

    def transfer_finished(self) -> None:
        """A buffer left the pipeline; admit a blocked producer if any."""
        if self.in_flight <= 0:
            raise ExecutionError("transfer_finished without transfer_started")
        self.in_flight -= 1
        if self._put_waiters:
            event, buffer = self._put_waiters.popleft()
            self._admit(buffer)
            event.trigger(None)

    def _admit(self, buffer: SendBuffer) -> None:
        if self._get_waiters:
            self.handed += 1
            self._get_waiters.popleft().trigger(buffer)
        else:
            self.items.append(buffer)

    @property
    def backlog(self) -> int:
        """Buffers occupying queue capacity: queued, handed to the sender
        but not yet transmitting, and in flight.  A buffer only stops
        counting when ``transfer_finished`` releases its slot — before
        this fix the window between ``get()`` and ``transfer_started()``
        was invisible, letting producers over-admit past the
        ``hive.datampi.sendqueue`` knob."""
        return len(self.items) + self.handed + self.in_flight


class ReceiveManager:
    """A-side buffer cache with memory accounting and disk spill.

    One instance per job.  Buffers delivered for partition *p* land on
    the node hosting A task *p*; received bytes beyond the node's cache
    budget are spilled (the A task later reads them back).
    """

    def __init__(self, partition_nodes: List[Node], cache_budget_per_node: float):
        self.partition_nodes = partition_nodes
        self.cache_budget = cache_budget_per_node
        self._arrivals: List[List[Tuple[int, int, Segments]]] = [
            [] for _ in partition_nodes
        ]
        self.cached_bytes: Dict[Node, float] = {}
        self.cached_partition_bytes: List[float] = [0.0] * len(partition_nodes)
        self.spilled_bytes: List[float] = [0.0] * len(partition_nodes)
        self.received_bytes: List[float] = [0.0] * len(partition_nodes)

    def partition_pairs(self, partition: int) -> Segments:
        """The partition's pairs in canonical (sender, emission-seq)
        order, regardless of network arrival interleaving.

        Buffers race each other on shared links, and on a cluster shared
        with other queries the winner can change run to run; sorting by
        provenance keeps the reduce input — and hence float-aggregation
        order — byte-stable, mirroring the Hadoop engine's fixed
        map-index merge order.
        """
        out = Segments()
        for _sender, _seq, segments in sorted(
            self._arrivals[partition], key=itemgetter(0, 1)
        ):
            out.extend(segments)
        return out

    def accept(self, partition: int, buffer: SendBuffer) -> float:
        """Account a delivered buffer; returns the bytes that overflow
        the node's cache budget (0.0 when it all fits), which the caller
        must write to the node's disk.

        The network transfer has already happened (shuffle engine); this
        decides only the A-side memory/disk split.  A buffer that
        straddles the budget boundary is split: the part that fits stays
        cached, only the overflow goes to disk.
        """
        node = self.partition_nodes[partition]
        logical = buffer.logical_bytes
        self._arrivals[partition].append((buffer.sender, buffer.seq, buffer.segments))
        self.received_bytes[partition] += logical
        used = self.cached_bytes.get(node, 0.0)
        fit = min(logical, max(0.0, self.cache_budget - used))
        if fit > 0:
            self.cached_bytes[node] = used + fit
            self.cached_partition_bytes[partition] += fit
        overflow = logical - fit
        if overflow > _EPSILON_BYTES:
            self.spilled_bytes[partition] += overflow
            return overflow
        return 0.0

    def deliver(self, partition: int, buffer: SendBuffer):
        """Coroutine: :meth:`accept` a buffer and spill its overflow."""
        overflow = self.accept(partition, buffer)
        if overflow:
            yield from self.partition_nodes[partition].disk_write(overflow)

    def release_partition(self, partition: int) -> None:
        """A task consumed its data: free the cached buffer space.

        Uses the exact per-partition cached amount (not the derived
        ``received - spilled``), so releasing the same partition twice —
        or any other over-free on a node shared by several partitions —
        is an accounting error, not something a clamp silently absorbs.
        """
        node = self.partition_nodes[partition]
        cached = self.cached_partition_bytes[partition]
        if cached <= 0:
            return
        self.cached_partition_bytes[partition] = 0.0
        held = self.cached_bytes.get(node, 0.0)
        # tolerance: absolute epsilon plus a float-summation allowance
        # proportional to the magnitudes involved
        tolerance = _EPSILON_BYTES + 1e-9 * max(cached, held)
        if cached > held + tolerance:
            raise ExecutionError(
                f"receive cache over-free: partition {partition} releases "
                f"{cached} bytes but node holds {held}"
            )
        self.cached_bytes[node] = max(0.0, held - cached)
