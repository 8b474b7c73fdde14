"""dstat-style resource sampler (paper, Fig 13).

Samples the cluster once per simulated second: CPU utilization, I/O-wait,
disk read/write bandwidth, network TX bandwidth and memory footprint,
aggregated over the worker nodes exactly as the paper's `dstat` runs were.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.simulate.cluster import Cluster


@dataclass(frozen=True)
class ResourceSample:
    """One 1 Hz observation of cluster-wide resource usage."""

    time: float
    cpu_utilization: float  # busy slots / total slots, 0..1
    io_wait: float  # tasks blocked on disk / total slots, 0..1
    disk_read_bps: float
    disk_write_bps: float
    net_tx_bps: float
    memory_used: float


class MetricsSampler:
    """Periodically samples a :class:`Cluster` into a list of samples.

    Driven by simulator callbacks (not a process) so stopping it never
    leaves a dangling event in the agenda.  A sample's ``time`` counts
    from :meth:`start`, so a sampler started with a plan reads the
    plan's own clock.  Sampling only reads: the byte counters it reads
    are pure, so a run with a sampler is the same run without one.
    """

    def __init__(self, cluster: Cluster, interval: float = 1.0):
        self.cluster = cluster
        self.interval = interval
        self.samples: List[ResourceSample] = []
        self._running = False
        self._generation = 0
        self._started_at = 0.0
        self._last_disk_read = 0.0
        self._last_disk_write = 0.0
        self._last_net_tx = 0.0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._generation += 1
        self._started_at = self.cluster.sim.now
        self._last_disk_read = self._disk_read_total()
        self._last_disk_write = self._disk_write_total()
        self._last_net_tx = self._net_tx_total()
        self.cluster.sim.call_at(
            self.cluster.sim.now + self.interval,
            self._tick,
            self._generation,
            daemon=True,
        )

    def stop(self) -> None:
        self._running = False

    # -- internals ------------------------------------------------------------
    def _disk_read_total(self) -> float:
        return sum(node.disk_bytes_read for node in self.cluster.workers)

    def _disk_write_total(self) -> float:
        return sum(node.disk_bytes_written for node in self.cluster.workers)

    def _net_tx_total(self) -> float:
        return sum(node.nic_tx.progressed_bytes() for node in self.cluster.workers)

    def _tick(self, generation: int) -> None:
        if not self._running or generation != self._generation:
            return
        cluster = self.cluster
        total_slots = cluster.spec.total_slots
        disk_read = self._disk_read_total()
        disk_write = self._disk_write_total()
        net_tx = self._net_tx_total()
        self.samples.append(
            ResourceSample(
                time=cluster.sim.now - self._started_at,
                cpu_utilization=min(1.0, cluster.total_computing() / total_slots),
                io_wait=min(1.0, cluster.total_io_waiting() / total_slots),
                disk_read_bps=(disk_read - self._last_disk_read) / self.interval,
                disk_write_bps=(disk_write - self._last_disk_write) / self.interval,
                net_tx_bps=(net_tx - self._last_net_tx) / self.interval,
                memory_used=cluster.total_memory_used(),
            )
        )
        self._last_disk_read = disk_read
        self._last_disk_write = disk_write
        self._last_net_tx = net_tx
        cluster.sim.call_at(
            cluster.sim.now + self.interval, self._tick, generation, daemon=True
        )

    # -- aggregates (used by the Fig 13 report) --------------------------------
    def average(self, attribute: str, since: float = 0.0) -> Optional[float]:
        values = [
            getattr(sample, attribute)
            for sample in self.samples
            if sample.time >= since
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def peak(self, attribute: str) -> Optional[float]:
        if not self.samples:
            return None
        return max(getattr(sample, attribute) for sample in self.samples)
