"""The bipartite O/A communicator of one submission (paper §IV-B, Fig 7).

An O rank hands :meth:`ORank.send` the Send Partition List buffers its
computation filled, in one of three styles: **non-blocking** — a
bounded send queue, drained by a sender thread with one ``MPI_Isend``
per buffer whose completion is a callback that accounts (and spills)
the buffer on the A side; **blocking** — synchronized all-to-all rounds
ending in ``MPI_Waitall``, where a skewed rank stalls everyone (Fig 6);
**no overlap** — every send waits for the end of the computation.  An A
rank reads its spilled bytes back, then its pairs in ``(sender, seq)``
order.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator, List, Optional

from repro.datampi.buffers import ReceiveManager, SendBuffer, SendQueue
from repro.datampi.mpi import DynamicBarrier, SimulatedMPI
from repro.obs import Span, get_metrics
from repro.simulate import Cluster, Event, Node
from repro.simulate.costmodel import DataMPIModel


class Bipartite:
    """The O/A communicator: A rank *p* receives partition *p* on
    ``partition_nodes[p]``, which caches up to *cache_fraction* of its A
    processes' heap and spills the rest to its disk."""

    def __init__(self, cluster: Cluster, gang, partition_nodes: List[Node],
                 costs: DataMPIModel, name: str, *, cache_fraction: float,
                 queue_capacity: int, nonblocking: bool, overlap: bool):
        self.sim = cluster.sim
        self.mpi = SimulatedMPI(cluster)
        self.gang = gang
        self.costs = costs
        self.name = name
        spec = cluster.spec  # the A processes' heap share caches partitions
        cache_budget = cache_fraction * spec.heap_per_task * spec.slots_per_node
        self.receive = ReceiveManager(partition_nodes, cache_budget)
        self.barrier = DynamicBarrier(self.sim)
        self.nonblocking = nonblocking
        self.overlap = overlap
        self.queue_capacity = queue_capacity
        self.occupancy = get_metrics().histogram("datampi.sendqueue.occupancy")
        self.outstanding = 0  # MPI_Isends whose buffer has not landed yet
        self.drained: Optional[Event] = None

    @property
    def delivered_bytes(self) -> float:
        return sum(self.receive.received_bytes)

    def drain(self):
        """Generator: the drain window — every O rank is done, the last
        buffers may still be on the wire.  A gang trip ends it."""
        if self.outstanding and not self.gang.tripped:
            self.drained = self.sim.event()
            self.gang.watch(self.drained)
            yield self.drained

    # -- non-blocking delivery ------------------------------------------------
    def _sender_thread(self, node: Node, queue: SendQueue):
        """One MPI_Isend per queued buffer; a completion is a callback."""
        sim = self.sim
        receive = self.receive
        while True:
            buffer = queue.get()
            if isinstance(buffer, Event):
                buffer = yield buffer
            if buffer is _SENTINEL:
                return
            queue.transfer_started()
            yield sim.timeout(self.costs.send_setup_seconds)  # request setup
            destination = receive.partition_nodes[buffer.partition]
            request = self.mpi.isend(node, destination, buffer.logical_bytes)
            self.outstanding += 1
            request.add_callback(self._delivered, queue, buffer)

    def _delivered(self, _value, queue: SendQueue, buffer: SendBuffer) -> None:
        """A send's bytes have crossed both NICs."""
        if self.gang.tripped:
            return  # MPI_Abort: nothing lands in a dead communicator
        overflow = self.receive.accept(buffer.partition, buffer)
        if overflow:
            # A-side spill: the buffer has not landed until its overflow
            # is on disk, and that takes simulated time
            self.gang.add(self.sim.spawn(
                self._spill(queue, buffer.partition, overflow),
                f"o{buffer.sender}-spill",
            ))
        else:
            self._landed(queue)

    def _spill(self, queue: SendQueue, partition: int, overflow: float):
        yield from self.receive.partition_nodes[partition].disk_write(overflow)
        self._landed(queue)

    def _landed(self, queue: SendQueue) -> None:
        """A buffer is accounted on the A side: free its queue slot."""
        queue.transfer_finished()
        self.outstanding -= 1
        if not self.outstanding and self.drained is not None:
            self.drained.trigger(None)


class ORank:
    """O rank *index* on worker *node_index*, its injected failure
    fraction *doom* (or ``None``), the gang slot *lease* it checks its
    slot out of (or ``None``) and its send side.

    The O role drives the send side in this order: :meth:`start` when
    its computation starts (a doomed rank never starts), :meth:`send`
    per batch of filled buffers, :meth:`flush` when the computation
    ends, :meth:`close` in a ``finally`` *before* the role gives its slot
    back (both wake waiters, so their order is the simulation's), and
    :meth:`join` only if the rank was not interrupted.  The role holds
    the slot, so the library cannot run this sequence around it."""

    def __init__(self, comm: Bipartite, index: int, node_index: int,
                 doom: Optional[float], lease):
        self.comm = comm
        self.index = index
        self.node_index = node_index
        self.doom = doom
        self.lease = lease
        self.node = comm.mpi.cluster.workers[node_index]
        self.queue = SendQueue(comm.sim, comm.queue_capacity)
        self.send_events: List[float] = []  # when each send was handed over
        self.sender = None
        self._seq = count()  # provenance stamp for canonical receive order
        self._held: List[SendBuffer] = []  # overlap disabled: defer all sends
        if not comm.nonblocking:
            comm.barrier.register()

    def start(self) -> None:
        """The computation starts (non-blocking style: so does the sender)."""
        comm = self.comm
        if comm.nonblocking and comm.receive.partition_nodes:
            self.sender = comm.sim.spawn(
                comm._sender_thread(self.node, self.queue),
                f"{comm.name}-o{self.index}-send",
            )
            comm.gang.add(self.sender)

    def send(self, buffers: List[SendBuffer], scale: float):
        """Generator: hand over freshly filled *buffers* (bytes × *scale*)."""
        fresh = _stamp(buffers, scale, self.index, self._seq)
        if self.comm.overlap:
            yield from self._emit(fresh)
        else:
            self._held.extend(fresh)

    def flush(self):
        """Generator: the computation is over — ship what it held back."""
        yield from self._emit(self._held)

    def close(self) -> None:
        """The rank leaves the communicator, done or not."""
        if not self.comm.nonblocking:
            self.comm.barrier.deregister()
        if self.sender is not None:
            self.queue.put(_SENTINEL)  # stop the sender thread

    def join(self):
        """Generator: wait until the sender issued its last request."""
        if self.sender is not None:
            yield self.sender

    def _emit(self, buffers: List[SendBuffer]):
        comm = self.comm
        sim = comm.sim
        queue = self.queue
        if comm.nonblocking:
            for buffer in buffers:
                admitted = queue.put(buffer)
                if admitted is not None:
                    yield admitted  # the send queue is full: computation blocks
                self.send_events.append(sim.now)
                comm.occupancy.observe(queue.backlog)
            return
        receive = comm.receive
        chunk = max(1, comm.costs.blocking_round_buffers)
        for start in range(0, len(buffers), chunk):
            round_buffers = buffers[start : start + chunk]
            yield comm.barrier.arrive()
            requests = []
            for buffer in round_buffers:
                self.send_events.append(sim.now)
                destination = receive.partition_nodes[buffer.partition]
                requests.append(
                    comm.mpi.isend(self.node, destination, buffer.logical_bytes)
                )
            yield sim.all_of(requests)  # MPI_Waitall
            for buffer in round_buffers:
                yield from receive.deliver(buffer.partition, buffer)
            yield comm.barrier.arrive()  # completion round


class ARank:
    """A rank *partition* on worker *node_index*, *doom* as an O rank's."""

    def __init__(self, comm: Bipartite, partition: int, node_index: int,
                 doom: Optional[float]):
        self.comm = comm
        self.partition = partition
        self.node_index = node_index
        self.doom = doom
        #: logical bytes delivered to this partition (the O phase is over)
        self.received = comm.receive.received_bytes[partition]

    def pairs(self, span: Optional[Span] = None):
        """Generator: read spilled bytes back (a ``spill`` child of
        *span*); returns the pairs in canonical ``(sender, seq)`` order."""
        receive = self.comm.receive
        spilled = receive.spilled_bytes[self.partition]
        if spilled > 0:
            sim = self.comm.sim
            spill_span = (
                Span("spill", sim.now) if span is None
                else span.start_child("spill", sim.now, category="spill",
                                      bytes=spilled, node=self.node_index)
            )
            get_metrics().counter("datampi.spill.bytes").add(spilled)
            yield from receive.partition_nodes[self.partition].disk_read(spilled)
            spill_span.finish(sim.now)
        return receive.partition_pairs(self.partition)

    def release(self) -> None:
        """The partition is consumed: free its cached bytes."""
        self.comm.receive.release_partition(self.partition)


_SENTINEL = SendBuffer(partition=-1)


def _stamp(buffers: List[SendBuffer], scale: float, sender: int,
           emit_seq: Iterator[int]) -> List[SendBuffer]:
    """Stamp provenance onto freshly filled buffers: the producing
    split's byte-scale plus the emitting O rank and its emission
    sequence (the receive side orders pairs by the latter two)."""
    for buffer in buffers:
        buffer.scale = scale
        buffer.sender = sender
        buffer.seq = next(emit_seq)
    return buffers
