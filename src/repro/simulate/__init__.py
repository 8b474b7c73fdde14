"""Discrete-event cluster simulator.

Replaces the paper's 8-node Gigabit-Ethernet testbed.  Tasks from both
execution engines run as coroutine processes that pay modeled costs for
CPU, disk and network through bandwidth-shared resources, while the
functional query work (filter/join/aggregate over real rows) happens
eagerly in wall-clock time.

Layers:

* :mod:`repro.simulate.events`  — event loop, processes, timeouts, combinators
* :mod:`repro.simulate.resources` — slot pools, processor-shared bandwidth, memory
* :mod:`repro.simulate.cluster` — nodes and the cluster topology
* :mod:`repro.simulate.costmodel` — every calibrated constant, one frozen
  :class:`CostModel` the runtime carries
* :mod:`repro.simulate.metrics` — dstat-style 1 Hz utilization sampler
* :mod:`repro.simulate.faults` — declarative fault plans, elastic
  membership (scale-up/drain) and the heartbeat failure detector
* :mod:`repro.simulate.leases` — multi-query slot arbitration + attribution
* :mod:`repro.simulate.chaos` — randomized fault+membership schedules
  checked against global recovery invariants
"""

from repro.simulate.events import Simulator, Event, Process, Interrupt
from repro.simulate.resources import SlotPool, Bandwidth, MemoryAccount
from repro.simulate.cluster import Node, Cluster, ClusterSpec
from repro.simulate.costmodel import CostModel
from repro.simulate.metrics import MetricsSampler, ResourceSample
from repro.simulate.faults import (
    Degradation,
    Drain,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    HeartbeatMonitor,
    NodeCrash,
    ScaleUp,
    Straggler,
)
from repro.simulate.leases import (
    GangLease,
    LeaseLedger,
    LeaseManager,
    LeaseOwner,
    OwnerUsage,
)

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Interrupt",
    "SlotPool",
    "Bandwidth",
    "MemoryAccount",
    "Node",
    "Cluster",
    "ClusterSpec",
    "CostModel",
    "MetricsSampler",
    "ResourceSample",
    "FaultPlan",
    "FaultInjector",
    "FaultEvent",
    "HeartbeatMonitor",
    "NodeCrash",
    "Degradation",
    "Straggler",
    "ScaleUp",
    "Drain",
    "LeaseManager",
    "LeaseOwner",
    "LeaseLedger",
    "GangLease",
    "OwnerUsage",
]
