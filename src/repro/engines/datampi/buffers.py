"""DataMPI buffer manager (paper §IV-C, Fig 7).

Three cooperating pieces:

* :class:`SendPartitionList` — per-O-task partition buffers.  Each
  partition accumulates key-value pairs for one A task; a full partition
  becomes a :class:`SendBuffer` and is pushed toward the shuffle engine.
* :class:`SendQueue` — the bounded queue between the computing thread
  and the communication thread(s).  Its capacity is the
  ``hive.datampi.sendqueue`` knob (Fig 8 right): a full queue blocks the
  O task (computation waits for communication).
* :class:`ReceiveManager` — A-side: delivered buffers are cached in
  memory up to the ``hive.datampi.memusedpercent`` budget and spilled to
  local disk beyond it (Fig 8 left).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError
from repro.common.kv import KeyValue
from repro.simulate.cluster import Node
from repro.simulate.events import Event, Simulator

_EPSILON_BYTES = 1e-6


@dataclass
class SendBuffer:
    """One full send partition: the unit the shuffle engine transmits."""

    partition: int
    pairs: List[KeyValue] = field(default_factory=list)
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
        self.capacity = partition_capacity_bytes
        self._buffers: List[SendBuffer] = [
            SendBuffer(partition=i) for i in range(num_partitions)
        ]
        self.pairs_added = 0
        self.bytes_added = 0

    def add(self, partition: int, pair: KeyValue) -> Optional[SendBuffer]:
        """Append a pair; returns the filled buffer when the partition
        crosses its capacity (caller pushes it to the send queue)."""
        buffer = self._buffers[partition]
        try:
            # the ReduceSink seeds the size memo; read it without a frame
            size = pair._size
        except AttributeError:
            size = pair.serialized_size()
        buffer.pairs.append(pair)
        buffer.actual_bytes += size
        self.pairs_added += 1
        self.bytes_added += size
        if buffer.actual_bytes >= self.capacity:
            self._buffers[partition] = SendBuffer(partition=partition)
            return buffer
        return None

    def add_many(self, partitions, pairs, on_full) -> None:
        """Bulk :meth:`add`: the vectorized sink's whole batch in one
        frame.  Every pair arrives with its ``_size`` memo pre-seeded;
        filled buffers go to *on_full* in the exact order per-pair
        ``add`` would have produced them."""
        buffers = self._buffers
        capacity = self.capacity
        nbytes = 0
        for partition, pair in zip(partitions, pairs):
            buffer = buffers[partition]
            size = pair._size
            buffer.pairs.append(pair)
            buffer.actual_bytes += size
            nbytes += size
            if buffer.actual_bytes >= capacity:
                buffers[partition] = SendBuffer(partition=partition)
                on_full(buffer)
        self.pairs_added += len(pairs)
        self.bytes_added += nbytes

    def drain(self) -> List[SendBuffer]:
        """Remaining non-empty partial buffers (task close)."""
        out = [buffer for buffer in self._buffers if buffer.pairs]
        self._buffers = [SendBuffer(partition=i) for i in range(self.num_partitions)]
        return out

    @property
    def buffered_bytes(self) -> int:
        return sum(buffer.actual_bytes for buffer in self._buffers)


class SendQueue:
    """Bounded FIFO between computation and communication threads.

    ``put`` returns an event that triggers once the buffer is admitted;
    a slot frees when the shuffle engine reports the transfer finished.
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
        self.total_put_wait = 0.0  # accumulated producer blocking time

    def put(self, buffer: SendBuffer) -> Event:
        event = Event(self.sim)
        if self.backlog < self.capacity:
            self._admit(buffer)
            event.trigger(None)
        else:
            self._put_waiters.append((event, buffer))
        return event

    def get(self) -> Event:
        """Event that yields the next buffer (for the sender thread)."""
        event = Event(self.sim)
        if self.items:
            self.handed += 1
            event.trigger(self.items.popleft())
        else:
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

    def __init__(
        self,
        sim: Simulator,
        partition_nodes: List[Node],
        cache_budget_per_node: float,
    ):
        self.sim = sim
        self.partition_nodes = partition_nodes
        self.cache_budget = cache_budget_per_node
        self._arrivals: List[List[Tuple[int, int, List[KeyValue]]]] = [
            [] for _ in partition_nodes
        ]
        self.cached_bytes: Dict[Node, float] = {}
        self.cached_partition_bytes: List[float] = [0.0] * len(partition_nodes)
        self.spilled_bytes: List[float] = [0.0] * len(partition_nodes)
        self.received_bytes: List[float] = [0.0] * len(partition_nodes)

    def node_for(self, partition: int) -> Node:
        return self.partition_nodes[partition]

    def partition_pairs(self, partition: int) -> List[KeyValue]:
        """The partition's pairs in canonical (sender, emission-seq)
        order, regardless of network arrival interleaving.

        Buffers race each other on shared links, and on a cluster shared
        with other queries the winner can change run to run; sorting by
        provenance keeps the reduce input — and hence float-aggregation
        order — byte-stable, mirroring the Hadoop engine's fixed
        map-index merge order.
        """
        chunks = sorted(self._arrivals[partition],
                        key=lambda entry: (entry[0], entry[1]))
        out: List[KeyValue] = []
        for _sender, _seq, pairs in chunks:
            out.extend(pairs)
        return out

    @property
    def pairs(self) -> List[List[KeyValue]]:
        """Canonically ordered pairs for every partition (see
        :meth:`partition_pairs`)."""
        return [self.partition_pairs(p)
                for p in range(len(self.partition_nodes))]

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
        self._arrivals[partition].append((buffer.sender, buffer.seq, buffer.pairs))
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
