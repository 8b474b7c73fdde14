"""Simulated MPI point-to-point layer: what DataMPI's shuffle engine
needs from MVAPICH2.  A non-blocking send's request is an
:class:`~repro.simulate.Event` (``MPI_Test`` is ``triggered``) and moves
through the simulated NICs, so concurrent sends contend like messages
on a GigE fabric; the barrier serves the blocking communication style.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ExecutionError
from repro.simulate.cluster import Cluster, Node
from repro.simulate.events import Event, Simulator


class SimulatedMPI:
    """Point-to-point message transport over the simulated cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.messages_sent = 0

    def isend(self, source: Node, destination: Node, nbytes: float) -> Event:
        """Start a non-blocking transfer (``MPI_Isend``); the request
        completes when the bytes have crossed both NICs (same-node sends
        are immediate)."""
        self.messages_sent += 1
        if source is destination or nbytes <= 0:
            return self.sim.event().trigger(None)
        return self.sim.all_of(
            [source.nic_tx.transfer(nbytes), destination.nic_rx.transfer(nbytes)]
        )


class DynamicBarrier:
    """Barrier whose membership can shrink (tasks deregister on finish).

    The blocking communication style synchronizes every participant at
    each round; a skewed task makes all others wait — this is the
    synchronization overhead Fig 6 visualizes.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._members = 0
        self._arrived = 0
        self._gate: Optional[Event] = None

    def register(self) -> None:
        self._members += 1

    def deregister(self) -> None:
        """Leave the barrier; may release waiters if they were only
        waiting for this member."""
        if self._members <= 0:
            raise ExecutionError("deregister on empty barrier")
        self._members -= 1
        self._maybe_release()

    def arrive(self) -> Event:
        """Arrive at the barrier; the returned event triggers once every
        registered member has arrived."""
        if self._gate is None:
            self._gate = self.sim.event()
            self._arrived = 0
        self._arrived += 1
        gate = self._gate
        self._maybe_release()
        return gate

    def _maybe_release(self) -> None:
        # a gate exists once a member arrived, and goes when it opens
        if self._gate is not None and self._arrived >= self._members:
            gate, self._gate = self._gate, None
            gate.trigger(None)
