"""MPI-D as a library: a word count on the simulated cluster, with plain
Python callables as the O and A work and no Hive anywhere — no SQL,
plan, operator, driver or engine module is imported here (the import
boundary test holds this file to that).

Each O rank counts the words of its text into a Send Partition List and
hands the full buffers to the communicator; each A rank reads its
partition back.  Whatever the communication style, every pair lands
once, in its partition, in ``(sender, seq)`` order; and a gang trip in
the middle of the sends leaves the resubmission's delivery equal to a
clean run's.
"""

from zlib import crc32

import pytest

from repro.common.kv import KeyValue, PairRun, kv_size
from repro.datampi import MPIDJob, SendPartitionList
from repro.simulate import Cluster, ClusterSpec, CostModel, Interrupt, Simulator
from repro.simulate.faults import FaultInjector, FaultPlan
from repro.simulate.leases import LeaseManager

PARTITIONS = 3
WORDS = "the quick brown fox jumps over the lazy dog and the cat".split()
TEXTS = [  # one text per O rank; more ranks than one node's slots
    [WORDS[(rank * 7 + i * (rank + 3)) % len(WORDS)] for i in range(40 + 9 * rank)]
    for rank in range(6)
]
SCALE = 2e5  # logical bytes per actual byte: megabytes on the simulated wire


def partition_of(word: str) -> int:
    return crc32(word.encode()) % PARTITIONS


def expected_delivery():
    """Partition -> its words: senders in order, each in emit order."""
    return {
        p: [word for text in TEXTS for word in text if partition_of(word) == p]
        for p in range(PARTITIONS)
    }


class WordCount:
    """One submission's roles: O rank *r* emits ``(word, (0, 1))`` for
    every word of ``TEXTS[r]`` in batches of eight."""

    def __init__(self, sim, gang, log):
        self.sim = sim
        self.gang = gang
        self.log = log  # across submissions

    def layout(self, remap):
        return [remap(rank % 3) for rank in range(len(TEXTS))], PARTITIONS

    def o_rank(self, rank):
        self.log["ranks"].append(rank)
        spl = SendPartitionList(PARTITIONS, 200)
        try:
            rank.start()
            text = TEXTS[rank.index]
            for start in range(0, len(text), 8):
                words = text[start:start + 8]
                sizes = [kv_size(KeyValue((word,), (0, 1))) for word in words]
                run = PairRun([words], [[1] * len(words)], 0, sizes)
                full = []
                spl.add_many([partition_of(word) for word in words], run, full.append)
                yield from rank.node.compute(0.2)
                yield from rank.send(full, SCALE)
            yield from rank.send(spl.drain(), SCALE)
            yield from rank.flush()
        except Interrupt:
            return
        finally:
            rank.close()
        yield from rank.join()

    def o_done(self, comm):
        self.log["o_done"].append(comm.delivered_bytes)

    def a_rank(self, rank):
        try:
            pairs = yield from rank.pairs()
        except Interrupt:
            return
        words = [run.key_columns[0][i] for run, positions in pairs.parts for i in positions]
        self.log["delivered"][rank.partition] = words
        output = self.log["output"]
        output[rank.partition] = len(words)
        self.gang.undo.append(lambda: output.pop(rank.partition))
        self.log["a_done"].append((len(self.log["gangs"]), self.sim.now))
        rank.release()


def run_job(trip_at=None, **style):
    """``(log, restarts, seconds)`` of one word count; *trip_at* trips
    the first submission's gang at that instant."""
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_nodes=4))
    leases = LeaseManager(sim)
    injector = FaultInjector(sim, cluster, FaultPlan())
    log = {"ranks": [], "delivered": {}, "output": {}, "o_done": [], "gangs": [],
           "a_done": []}

    def submit(gang, submission):
        log["gangs"].append(gang)
        return WordCount(sim, gang, log)

    if trip_at is not None:
        sim.call_at(trip_at, lambda: log["gangs"][0].trip("test-trip"))
    job = MPIDJob(cluster, injector, leases, CostModel().datampi, "wordcount",
                  retry_max=1, backoff=0.5, queue_capacity=2, cache_fraction=0.001,
                  **style)
    process = sim.spawn(job.run(submit))
    sim.run()
    assert process.triggered
    return log, process.value, sim.now


STYLES = {
    "non-blocking": {"nonblocking": True, "overlap": True},
    "blocking": {"nonblocking": False, "overlap": True},
    "no-overlap": {"nonblocking": True, "overlap": False},
}


@pytest.mark.parametrize("style", sorted(STYLES))
def test_every_pair_lands_once_in_sender_seq_order(style):
    log, restarts, seconds = run_job(**STYLES[style])
    assert restarts == 0 and seconds > 0
    assert log["delivered"] == expected_delivery()
    assert log["output"] == {p: len(words) for p, words in expected_delivery().items()}
    sends = [rank.send_events for rank in log["ranks"]]
    assert all(sends) and sum(map(len, sends)) > 3 * len(TEXTS)  # many buffers


def test_the_a_side_spills_past_its_cache():
    log, _restarts, _seconds = run_job(**STYLES["non-blocking"])
    comm = log["ranks"][0].comm
    assert sum(comm.receive.spilled_bytes) > 0  # a tiny cache: the A side spilled
    assert comm.outstanding == 0 and comm.drained is not None
    assert log["o_done"] == [sum(comm.receive.received_bytes)]


@pytest.mark.parametrize("style", sorted(STYLES))
def test_a_gang_trip_mid_send_resubmits_to_a_clean_delivery(style):
    clean, _restarts, clean_seconds = run_job(**STYLES[style])
    sends = sorted(t for rank in clean["ranks"] for t in rank.send_events)
    trip_at = sends[len(sends) // 2]  # half the buffers are handed over
    log, restarts, seconds = run_job(trip_at=trip_at, **STYLES[style])
    assert restarts == 1 and seconds > clean_seconds + 0.5  # backoff, respawn
    first, second = log["gangs"]
    assert first.tripped and first.cause == "test-trip" and not second.tripped
    # the aborted submission handed part of its buffers over, then stopped
    aborted = log["ranks"][:len(TEXTS)]
    assert 0 < sum(len(rank.send_events) for rank in aborted) < len(sends)
    assert log["delivered"] == clean["delivered"] == expected_delivery()
    assert log["output"] == clean["output"]


def test_an_abort_undoes_what_the_submission_committed():
    clean, _restarts, _seconds = run_job(**STYLES["non-blocking"])
    times = [time for _submission, time in clean["a_done"]]
    assert len(times) == PARTITIONS and times[0] < times[-1]
    log, restarts, _seconds = run_job(trip_at=(times[0] + times[-1]) / 2,
                                    **STYLES["non-blocking"])
    assert restarts == 1
    # the aborted submission's A ranks wrote part of the output and the
    # abort took it back: what is left is the resubmission's
    aborted = [time for submission, time in log["a_done"] if submission == 1]
    assert 0 < len(aborted) < PARTITIONS
    assert log["output"] == clean["output"]
