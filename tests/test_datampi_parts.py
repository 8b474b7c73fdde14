"""Unit tests for the DataMPI building blocks: MPI layer, SPL, queues,
the gang."""

import pytest

from repro.common.errors import ExecutionError
from repro.common.kv import KeyValue
from repro.common.units import MB
from repro.datampi.bipartite import Bipartite
from repro.datampi.buffers import (
    ReceiveManager,
    SendBuffer,
    SendPartitionList,
    SendQueue,
)
from repro.datampi.mpi import DynamicBarrier, SimulatedMPI
from repro.datampi.mpidrun import Gang
from repro.simulate import Cluster, ClusterSpec, CostModel, Event, Interrupt, Simulator

from .shuffle_reference import pairs_of, run_of, segments_of


@pytest.fixture()
def cluster():
    sim = Simulator()
    return Cluster(sim, ClusterSpec())


class TestSimulatedMPI:
    def test_isend_transfers_bytes(self, cluster):
        sim = cluster.sim
        mpi = SimulatedMPI(cluster)
        done = []

        def proc():
            request = mpi.isend(cluster.workers[0], cluster.workers[1], 117 * MB)
            assert not request.triggered  # MPI_Test
            yield request
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done[0] == pytest.approx(1.0, rel=1e-2)
        assert mpi.messages_sent == 1

    def test_same_node_send_immediate(self, cluster):
        mpi = SimulatedMPI(cluster)
        request = mpi.isend(cluster.workers[0], cluster.workers[0], 10 * MB)
        assert request.triggered

    def test_waitall(self, cluster):
        sim = cluster.sim
        mpi = SimulatedMPI(cluster)
        done = []

        def proc():
            requests = [
                mpi.isend(cluster.workers[0], cluster.workers[i], 58.5 * MB)
                for i in (1, 2)
            ]
            yield sim.all_of(requests)  # MPI_Waitall
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        # two transfers share the sender's TX: each 58.5 MB -> together 1s
        assert done[0] == pytest.approx(1.0, rel=1e-2)


class TestDynamicBarrier:
    def test_all_members_release_together(self):
        sim = Simulator()
        barrier = DynamicBarrier(sim)
        release_times = []

        def member(delay):
            yield sim.timeout(delay)
            yield barrier.arrive()
            release_times.append(sim.now)

        for delay in (1.0, 5.0, 2.0):
            barrier.register()
            sim.spawn(member(delay))
        sim.run()
        assert release_times == [5.0, 5.0, 5.0]  # everyone waits for the slowest

    def test_deregister_releases_waiters(self):
        sim = Simulator()
        barrier = DynamicBarrier(sim)
        released = []

        def waiter():
            yield barrier.arrive()
            released.append(sim.now)

        def leaver():
            yield sim.timeout(3.0)
            barrier.deregister()

        barrier.register()
        barrier.register()
        sim.spawn(waiter())
        sim.spawn(leaver())
        sim.run()
        assert released == [3.0]

    def test_deregister_empty_rejected(self):
        with pytest.raises(ExecutionError):
            DynamicBarrier(Simulator()).deregister()


def kv(i):
    return KeyValue((i,), (0, "payload" * 4))


def buffer_of(partition, pairs, actual_bytes):
    return SendBuffer(partition, segments=segments_of(pairs),
                      actual_bytes=actual_bytes, scale=1.0)


class TestSendPartitionList:
    def test_fills_and_rotates(self):
        spl = SendPartitionList(num_partitions=2, partition_capacity_bytes=100)
        filled = []
        run = run_of([kv(i) for i in range(12)])
        spl.add_many([i % 2 for i in range(12)], run, filled.append)
        assert filled, "partitions must fill at 100-byte capacity"
        assert all(buffer.actual_bytes >= 100 for buffer in filled)
        assert spl.bytes_added == sum(run.sizes)
        leftovers = spl.drain()
        total_pairs = sum(len(b.segments) for b in filled + leftovers)
        assert total_pairs == 12

    def test_drain_resets(self):
        spl = SendPartitionList(2, 1e9)
        filled = []
        spl.add_many([0], run_of([kv(1)]), filled.append)
        assert filled == []
        idle = spl._buffers[1]
        drained = spl.drain()
        assert [pairs_of(buffer.segments) for buffer in drained] == [[kv(1)]]
        assert spl.drain() == []
        # only a handed-out buffer is replaced; an empty one stays
        assert spl._buffers[1] is idle
        assert spl._buffers[0] is not drained[0] and not spl._buffers[0].segments
        spl.add_many([0], run_of([kv(2)]), filled.append)
        assert [pairs_of(buffer.segments) for buffer in spl.drain()] == [[kv(2)]]

    def test_zero_partitions_rejected(self):
        with pytest.raises(ExecutionError):
            SendPartitionList(0, 100)


class TestSendQueue:
    def test_put_get_fifo(self):
        sim = Simulator()
        queue = SendQueue(sim, capacity=2)
        a, b = SendBuffer(0), SendBuffer(1)
        assert queue.put(a) is None  # admitted on the spot: no event
        assert queue.put(b) is None
        assert queue.get() is a  # queued: handed over directly
        assert queue.get() is b

    def test_backpressure_until_transfer_finished(self):
        sim = Simulator()
        queue = SendQueue(sim, capacity=1)
        first = SendBuffer(0)
        second = SendBuffer(1)
        assert queue.put(first) is None
        blocked = queue.put(second)
        assert isinstance(blocked, Event) and not blocked.triggered  # queue full
        assert queue.get() is first
        queue.transfer_started()
        assert not blocked.triggered  # still in flight
        queue.transfer_finished()
        sim.run()
        assert blocked.triggered

    def test_get_waits_for_item(self):
        sim = Simulator()
        queue = SendQueue(sim, capacity=4)
        pending = queue.get()
        assert isinstance(pending, Event) and not pending.triggered
        buffer = SendBuffer(0)
        assert queue.put(buffer) is None  # handed to the waiting sender
        assert pending.triggered and pending.value is buffer

    def test_finish_without_start_rejected(self):
        with pytest.raises(ExecutionError):
            SendQueue(Simulator(), 1).transfer_finished()

    def test_tracks_backlog(self):
        sim = Simulator()
        queue = SendQueue(sim, capacity=4)
        queue.put(SendBuffer(0))
        queue.put(SendBuffer(1))
        assert queue.backlog == 2


class TestReceiveManager:
    def run(self, generator, sim):
        sim.spawn(generator)
        sim.run()

    def test_cache_until_budget_then_spill(self, cluster):
        sim = cluster.sim
        manager = ReceiveManager([cluster.workers[0]], cache_budget_per_node=100.0)

        def deliver():
            small = buffer_of(0, [kv(1)], 60)
            big = buffer_of(0, [kv(2)], 60)
            yield from manager.deliver(0, small)
            yield from manager.deliver(0, big)  # straddles the budget

        self.run(deliver(), sim)
        assert manager.received_bytes[0] == 120
        # the second buffer is split: 40 bytes still fit, 20 spill
        assert manager.cached_partition_bytes[0] == 100
        assert manager.spilled_bytes[0] == 20
        assert pairs_of(manager.partition_pairs(0)) == [kv(1), kv(2)]
        assert sim.now > 0  # the spill paid disk time

    def test_release_partition_frees_cache(self, cluster):
        sim = cluster.sim
        node = cluster.workers[0]
        manager = ReceiveManager([node], cache_budget_per_node=1000.0)

        def deliver():
            yield from manager.deliver(0, buffer_of(0, [kv(1)], 80))

        self.run(deliver(), sim)
        assert manager.cached_bytes[node] == 80
        manager.release_partition(0)
        assert manager.cached_bytes[node] == 0

    def test_accept_returns_only_the_overflow(self, cluster):
        sim = cluster.sim
        manager = ReceiveManager([cluster.workers[0]], cache_budget_per_node=100.0)
        fits = buffer_of(0, [kv(1)], 60)
        straddles = buffer_of(0, [kv(2)], 60)
        assert manager.accept(0, fits) == 0.0
        assert manager.accept(0, straddles) == 20.0
        assert manager.spilled_bytes[0] == 20.0
        assert sim.now == 0.0  # accounting only: the caller pays the disk


class _NoFaults:
    """The slice of FaultInjector a gang touches."""

    def subscribe_crash(self, callback):
        pass

    def unsubscribe_crash(self, callback):
        pass


class TestGang:
    def _rank(self, sim, seconds):
        def rank():
            try:
                yield sim.timeout(seconds)
            except Interrupt as interrupt:
                return interrupt.cause
            return "finished"

        return sim.spawn(rank())

    def test_finished_ranks_are_not_retained(self):
        # one entry per MPI_Isend used to pile up here for the whole
        # submission, and trip() walked them all
        sim = Simulator()
        gang = Gang(_NoFaults())
        survivor = self._rank(sim, 1e9)
        gang.add(survivor)
        for _ in range(5000):
            gang.add(self._rank(sim, 0.001))
            sim.run(until=sim.now + 0.002)
        assert len(gang.procs) < 200
        assert survivor in gang.procs
        gang.trip("abort")
        sim.run(until=sim.now + 1.0)
        assert survivor.value == ("gang-abort", "abort")

    def test_trip_interrupts_live_ranks_in_launch_order(self):
        sim = Simulator()
        gang = Gang(_NoFaults())
        order = []

        def rank(label):
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                order.append(label)

        for index in range(200):
            gang.add(self._rank(sim, 0.001))  # finish before the trip
            gang.add(sim.spawn(rank(index)))
        sim.run(until=1.0)
        gang.trip("abort")
        sim.run()
        assert order == list(range(200))

    def test_watched_event_fires_at_the_trip_instant(self):
        sim = Simulator()
        gang = Gang(_NoFaults())
        drained = sim.event()
        gang.watch(drained)
        woke = []

        def waiter():
            yield drained
            woke.append(sim.now)

        sim.spawn(waiter())
        sim.call_at(3.0, gang.trip, "node-crash")
        sim.call_at(9.0, lambda: None)
        sim.run()
        assert woke == [3.0]

    def test_trip_leaves_an_already_fired_watch_alone(self):
        sim = Simulator()
        gang = Gang(_NoFaults())
        drained = sim.event()
        gang.watch(drained)
        drained.trigger(None)
        gang.trip("late")  # must not trigger the event a second time
        assert gang.tripped

    def test_delivery_into_an_aborted_communicator_is_dropped(self):
        # a send still on the wire when the gang trips completes later;
        # it must neither land in the dead submission's receive cache
        # nor end a drain the abort already ended
        cluster = Cluster(Simulator(), ClusterSpec())
        gang = Gang(_NoFaults())
        comm = Bipartite(cluster, gang, [cluster.workers[0]], CostModel().datampi,
                         "job", cache_fraction=0.0, queue_capacity=1,
                         nonblocking=True, overlap=True)
        gang.trip("node-crash")
        comm._delivered(None, None, buffer_of(0, [kv(1)], 60))
        assert comm.receive.received_bytes == [0.0]
        assert cluster.sim.now == 0.0 and comm.drained is None
