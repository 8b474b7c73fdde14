"""Nodes and cluster topology.

Defaults mirror the paper's testbed (section V-A): 8 nodes on a Gigabit
Ethernet switch, 2x Intel Xeon E5620 with 4 usable task slots configured
per node, 16 GB RAM and one 7200-RPM SATA disk.  Node 0 is the master
(JobTracker / mpidrun launcher); nodes 1..7 are workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List

from repro.common.errors import ExecutionError
from repro.common.units import GB, MB
from repro.simulate.events import Simulator
from repro.simulate.resources import Bandwidth, MemoryAccount, SlotPool


@dataclass(frozen=True)
class ClusterSpec:
    """Physical description of the simulated testbed."""

    num_nodes: int = 8
    slots_per_node: int = 4
    disk_bandwidth: float = 100 * MB  # 7200-RPM SATA sequential throughput
    nic_bandwidth: float = 117 * MB  # GigE payload rate per direction
    memory_per_node: float = 16 * GB
    heap_per_task: float = 1 * GB

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ExecutionError("need at least a master and one worker")

    @property
    def num_workers(self) -> int:
        return self.num_nodes - 1

    @property
    def total_slots(self) -> int:
        return self.num_workers * self.slots_per_node


class Node:
    """One machine: task slots, a disk, a full-duplex NIC and memory.

    *metrics* (a :class:`repro.obs.MetricsRegistry`, optional) receives
    cumulative cluster-wide counters — CPU-seconds, disk/net bytes —
    alongside the per-resource accounting; recording never advances the
    simulated clock.
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec, node_id: int,
                 metrics=None):
        self.sim = sim
        self.spec = spec
        self.node_id = node_id
        self.metrics = metrics
        self.name = f"node{node_id}"
        self.slots = SlotPool(sim, spec.slots_per_node, f"{self.name}.slots")
        self.disk = Bandwidth(sim, spec.disk_bandwidth, f"{self.name}.disk")
        self.nic_tx = Bandwidth(sim, spec.nic_bandwidth, f"{self.name}.tx")
        self.nic_rx = Bandwidth(sim, spec.nic_bandwidth, f"{self.name}.rx")
        self.memory = MemoryAccount(spec.memory_per_node, f"{self.name}.mem")
        # fault-injection state: a dead node schedules no new work, a
        # straggling node pays `slowdown` times the CPU cost; a draining
        # node finishes what it is running but takes no new placements
        self.alive = True
        self.draining = False
        self.slowdown = 1.0
        # instantaneous gauges for the dstat-style sampler
        self.computing = 0
        self.io_waiting = 0

    @property
    def schedulable(self) -> bool:
        """True when new work may be placed here (alive and not draining).

        Replica *reads* keep using ``alive``: a draining node still
        serves its blocks until it is retired.
        """
        return self.alive and not self.draining

    @property
    def disk_bytes_read(self) -> float:
        """Progressive read-byte counter (shared spindle, split by
        category inside the bandwidth resource)."""
        return self.disk.progressed_bytes("read")

    @property
    def disk_bytes_written(self) -> float:
        return self.disk.progressed_bytes("write")

    # -- coroutine helpers (use with ``yield from``) ---------------------------
    def compute(self, seconds: float) -> Generator:
        """Burn CPU for *seconds* of simulated time on this node."""
        if seconds <= 0:
            return
        seconds *= self.slowdown
        if self.metrics is not None:
            self.metrics.counter("cluster.cpu_seconds").add(seconds)
        self.computing += 1
        try:
            yield self.sim.timeout(seconds)
        finally:
            self.computing -= 1

    def disk_read(self, nbytes: float) -> Generator:
        """Read *nbytes* from the local disk (processor-shared spindle)."""
        if nbytes <= 0:
            return
        if self.metrics is not None:
            self.metrics.counter("cluster.disk.read_bytes").add(nbytes)
        self.io_waiting += 1
        try:
            yield self.disk.transfer(nbytes, category="read")
        finally:
            self.io_waiting -= 1

    def disk_write(self, nbytes: float) -> Generator:
        """Write *nbytes* to the local disk."""
        if nbytes <= 0:
            return
        if self.metrics is not None:
            self.metrics.counter("cluster.disk.write_bytes").add(nbytes)
        self.io_waiting += 1
        try:
            yield self.disk.transfer(nbytes, category="write")
        finally:
            self.io_waiting -= 1

    def __repr__(self) -> str:
        return f"Node({self.name})"


class Cluster:
    """The full simulated cluster behind one non-blocking switch.

    The GigE switch has enough backplane for all NICs, so a transfer is
    limited only by the sender's TX and the receiver's RX shares.
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec = ClusterSpec(),
                 metrics=None):
        self.sim = sim
        self.spec = spec
        self.metrics = metrics
        self.nodes: List[Node] = [
            Node(sim, spec, i, metrics=metrics) for i in range(spec.num_nodes)
        ]
        self._join_listeners: List = []

    def on_join(self, listener) -> None:
        """Register *listener(node, worker_index)* for future node joins.

        Engines use this to grow per-worker structures (aux slot pools,
        daemon fleets) when the cluster scales up mid-run.
        """
        self._join_listeners.append(listener)

    def add_node(self) -> Node:
        """Grow the cluster by one worker node (elastic scale-up).

        The new node starts empty — no HDFS blocks, no cached stripes —
        exactly like a machine racked into a running cluster.  Join
        listeners fire synchronously so slot pools and daemon fleets
        exist before any placement can target the new worker.
        """
        node = Node(self.sim, self.spec, len(self.nodes), metrics=self.metrics)
        self.nodes.append(node)
        worker_index = len(self.workers) - 1
        for listener in list(self._join_listeners):
            listener(node, worker_index)
        return node

    @property
    def master(self) -> Node:
        return self.nodes[0]

    @property
    def workers(self) -> List[Node]:
        return self.nodes[1:]

    def worker(self, index: int) -> Node:
        return self.workers[index % len(self.workers)]

    def network_transfer(self, src: Node, dst: Node, nbytes: float) -> Generator:
        """Move *nbytes* from *src* to *dst* through the switch.

        Same-node transfers are free on the network (they happen through
        the page cache / loopback); the engines charge disk separately
        where real systems would.
        """
        if nbytes <= 0 or src is dst:
            return
        if self.metrics is not None:
            self.metrics.counter("cluster.net.bytes").add(nbytes)
        yield self.sim.all_of(
            [src.nic_tx.transfer(nbytes), dst.nic_rx.transfer(nbytes)]
        )

    def total_memory_used(self) -> float:
        return sum(node.memory.used for node in self.workers)

    def total_computing(self) -> int:
        return sum(node.computing for node in self.workers)

    def total_io_waiting(self) -> int:
        return sum(node.io_waiting for node in self.workers)
