"""``mpidrun``: an MPI-D job's process gang, launched and restarted.

``mpidrun`` spawns the CommonProcesses on every worker of its hostfile
(their heaps appear on every node at once: Fig 13(c)) and the O and A
tasks run as ranks of one communicator.  There is no task-granular
recovery: the first rank to fail aborts them all (``MPI_Abort``), what
the submission committed is undone (:attr:`Gang.undo`), and the job is
resubmitted under exponential backoff on a hostfile remapped over the
live workers until the resubmissions run out.

:class:`MPIDJob` owns the ranks; the caller hands in the work by role.
``submit(gang, submission)`` returns an object with ``layout(remap)``
(the O ranks' workers and the number of A ranks; *remap* folds a worker
index onto the hostfile), ``o_rank(rank)`` and ``a_rank(rank)``
(generators: :class:`~repro.datampi.bipartite.ORank` /
:class:`~repro.datampi.bipartite.ARank`) and ``o_done(comm)`` (every O
rank is done and every send landed; ``None``: there were no O ranks).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Optional, Set

from repro.common.errors import JobAbortedError, RetryExhaustedError
from repro.datampi.bipartite import ARank, Bipartite, ORank
from repro.obs import Span, get_metrics
from repro.simulate import Cluster, Event, FaultInjector, LeaseManager, LeaseOwner
from repro.simulate.costmodel import DataMPIModel


class Gang:
    """One submission's communicator: its processes and poison flag.
    The first failed rank ``trip``\\ s it and every other rank is
    interrupted at that instant (``MPI_Abort``); so does a node crash
    anywhere, since the MPI world spans all workers."""

    def __init__(self, injector: FaultInjector):
        self.injector = injector
        self.tripped = False
        self.cause: object = None
        self.procs: List = []
        self._sweep_at = 64
        self._watched: Optional[Event] = None
        #: what an abort undoes (the submission's committed output)
        self.undo: List[Callable[[], object]] = []
        #: worker indices in the submission's hostfile, once it is fixed
        self.attempt_indices: Set[int] = set()
        injector.subscribe_crash(self._on_crash)

    def _on_crash(self, worker_index: int) -> None:
        # With a heartbeat monitor running this fires at the *declared*
        # death, seconds after the physical crash — by then a resubmission
        # may already have excluded the node from its hostfile, and a
        # declaration must not poison a communicator the node never
        # joined.  Ranks on the dead node are interrupted physically at
        # the crash instant and trip the gang themselves.
        if self.attempt_indices and worker_index not in self.attempt_indices:
            return
        self.trip(("node-crash", worker_index))

    def add(self, proc) -> None:
        if self.tripped:
            if proc.alive:
                proc.interrupt(("gang-abort", self.cause))
            return
        if len(self.procs) >= self._sweep_at:
            # finished ranks have nothing left to interrupt; survivors
            # keep their launch order, which is the order a trip uses
            self.procs = [rank for rank in self.procs if rank.alive]
            self._sweep_at = 2 * len(self.procs) + 64
        self.procs.append(proc)

    def watch(self, event: Event) -> None:
        """Trigger *event* if the gang trips before it fires by itself:
        whoever waits on it wakes at the abort instant."""
        self._watched = event

    def trip(self, cause: object) -> None:
        if self.tripped:
            return
        self.tripped = True
        self.cause = cause
        for proc in self.procs:
            if proc.alive:
                proc.interrupt(("gang-abort", cause))
        if self._watched is not None and not self._watched.triggered:
            self._watched.trigger(None)

    def close(self) -> None:
        self.injector.unsubscribe_crash(self._on_crash)


class MPIDJob:
    """One job, as ``mpidrun`` submits it: O ranks compute and send, A
    ranks receive and reduce.  *retry_max* resubmissions follow the
    first, the n-th after ``backoff * 2**(n-1)`` seconds; *style* is the
    communicator's (:class:`~repro.datampi.bipartite.Bipartite`)."""

    def __init__(self, cluster: Cluster, injector: FaultInjector,
                 leases: LeaseManager, costs: DataMPIModel, name: str, *,
                 owner: Optional[LeaseOwner] = None,
                 retry_max: int, backoff: float, **style):
        self.sim = cluster.sim
        self.cluster = cluster
        self.injector = injector
        self.leases = leases
        self.costs = costs
        self.name = name
        self.owner = owner
        self.retry_max = retry_max
        self.backoff = backoff
        self.style = style

    def run(self, submit, respawn: bool = True, span: Optional[Span] = None):
        """Generator: submit until a submission completes; returns the
        restarts.  Without *respawn* the first submission reuses live
        CommonProcesses; aborts and backoffs are events on *span*."""
        sim = self.sim
        submission = 0
        while True:
            submission += 1
            gang = Gang(self.injector)
            try:
                yield from self._submission(submit(gang, submission), gang,
                                            submission, respawn or submission > 1)
                return submission - 1
            except JobAbortedError as abort:
                get_metrics().counter("engine.job.restarts").add(1)
                get_metrics().counter("datampi.job.restarts").add(1)
                if span is not None:
                    span.add_event("gang-abort", sim.now, cause=str(abort.cause),
                                   submission=submission)
                # MPI_Abort discards everything, even what it committed
                for undo in gang.undo:
                    undo()
                if submission > self.retry_max:
                    raise RetryExhaustedError(
                        f"job {self.name} aborted on all {submission} "
                        f"submission(s); last cause: {abort.cause}",
                        job_id=self.name,
                        attempts=submission,
                    )
                delay = self.backoff * (2 ** (submission - 1))
                if span is not None:
                    span.add_event("backoff", sim.now, seconds=delay)
                if delay > 0:
                    yield sim.timeout(delay)
            finally:
                gang.close()

    def _check(self, gang: Gang) -> None:
        if gang.tripped:
            raise JobAbortedError(f"gang abort: {gang.cause}", job_id=self.name,
                                  cause=gang.cause)

    def _submission(self, roles, gang: Gang, submission: int, respawn: bool):
        sim = self.sim
        spec = self.cluster.spec
        injector = self.injector
        costs = self.costs
        # the final permitted submission runs with injected task faults
        # disabled, so only repeated node crashes can exhaust the retries
        doom_ok = submission <= self.retry_max
        if respawn:
            yield sim.timeout(costs.mpidrun_spawn)
            yield sim.timeout(costs.process_launch)
        # slots_per_node O and A processes per worker (the testbed's 4 + 4),
        # resident from spawn time; the hostfile, read now that mpidrun has
        # spawned, leaves dead and draining hosts out.
        workers = self.cluster.workers
        hostfile = (
            injector.schedulable_worker_indices()  # skip draining hosts
            or injector.live_worker_indices()
            or list(range(len(workers)))
        )
        members = gang.attempt_indices = set(hostfile)
        resident = [workers[i] for i in hostfile]
        heap = 2 * spec.heap_per_task * spec.slots_per_node
        for worker in resident:
            worker.memory.allocate(heap)

        def remap(node_index: int) -> int:
            if node_index in members:
                return node_index
            return hostfile[node_index % len(hostfile)]

        def doom(rank: str) -> Optional[float]:
            return injector.attempt_doom(self.name, rank, submission) if doom_ok else None

        def launch(work, rank: str, node_index: int):
            proc = sim.spawn(work, f"{self.name}-s{submission}-{rank}")
            gang.add(proc)
            if injector.active:
                # physical failure semantics: a node crash interrupts
                # the resident rank at the crash instant; the rank
                # itself trips the gang
                injector.register(node_index, proc)
                ranks.append((node_index, proc))
            return proc

        ranks: List = []  # (worker_index, process) registered as MPI ranks
        grant = comm = None
        try:
            o_nodes, partitions = roles.layout(remap)
            if o_nodes:
                partition_nodes = [
                    workers[remap(p % len(workers))] for p in range(partitions)
                ]
                comm = Bipartite(self.cluster, gang, partition_nodes, costs, self.name,
                                 **self.style)
                # The O ranks' slots are leased all-or-nothing (a waiting gang
                # holds nothing, so it never wedges another query), up to each
                # pool's capacity: ranks a remap folded beyond it wave through
                # individual leases.
                budget = {
                    node_index: min(count, workers[node_index].slots.capacity)
                    for node_index, count in Counter(o_nodes).items()
                }
                grant = self.leases.acquire_gang(
                    [(workers[node_index].slots, budget[node_index])
                     for node_index in sorted(budget)],
                    self.owner,
                )
                yield grant
                self._check(gang)  # the gang may have tripped while we waited
                o_procs = []
                for index, node_index in enumerate(o_nodes):
                    reserved = budget[node_index] > 0
                    budget[node_index] -= 1
                    rank = ORank(comm, index, node_index, doom(f"o{index}"),
                                 grant.value if reserved else None)
                    o_procs.append(launch(roles.o_rank(rank), f"o{index}", node_index))
                yield sim.all_of(o_procs)
                yield from comm.drain()
                self._check(gang)
            roles.o_done(comm)
            if partitions:
                a_procs = []
                for partition, node in enumerate(comm.receive.partition_nodes):
                    rank = ARank(comm, partition, node.node_id - 1,
                                 doom(f"a{partition}"))
                    a_procs.append(launch(roles.a_rank(rank), f"a{partition}",
                                          rank.node_index))
                yield sim.all_of(a_procs)
                self._check(gang)
            yield sim.timeout(costs.job_cleanup)
            self._check(gang)
        finally:
            for worker_index, proc in ranks:
                injector.unregister(worker_index, proc)
            if grant is not None and grant.triggered:
                # ranks interrupted before their first step never ran
                # their ``finally``: their reserved slots are still
                # checked in here and must go back exactly once
                grant.value.release_unclaimed()
            elif grant is not None:
                # interrupted (deadline) while the gang was still queued:
                # withdraw the request so it cannot be granted to a dead
                # waiter and wedge the pool
                self.leases.cancel_gang(grant, self.owner)
            for worker in resident:
                worker.memory.free(heap)
