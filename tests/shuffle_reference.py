"""Per-pair references for the columnar shuffle, and converters between
``KeyValue`` lists (what the reference executor moves) and ``PairRun`` /
``Segments`` (what the engines move).  Test support, not a test module.
"""

from itertools import groupby

from repro.common.kv import KeyValue
from repro.common.rows import pack_column
from repro.exec.operators import Collector
from repro.exec.shuffle import PairRun, Segments


def run_of(pairs, packed=False):
    """One :class:`PairRun` holding *pairs* (same tag, same widths);
    *packed* stores all-int / all-float columns as typed arrays, the way
    a scan hands them to a sink."""
    def columns(rows):
        made = [list(column) for column in zip(*rows)]
        return [pack_column(column) for column in made] if packed else made

    return PairRun(
        columns([pair.key for pair in pairs]),
        columns([pair.value[1:] for pair in pairs]),
        pairs[0].value[0],
        [pair.serialized_size() for pair in pairs],
    )


def segments_of(pairs, packed=False):
    """*pairs* in arrival order as :class:`Segments`: one whole run per
    stretch of pairs sharing a tag."""
    segments = Segments()
    for _tag, stretch in groupby(pairs, key=lambda pair: pair.value[0]):
        run = run_of(list(stretch), packed)
        segments.add(run, range(len(run)))
    return segments


def pairs_of(segments):
    """The ``KeyValue`` pairs *segments* holds, in order."""
    out = []
    for run, positions in segments.parts:
        for i in positions:
            out.append(KeyValue(
                tuple(column[i] for column in run.key_columns),
                (run.tag,) + tuple(column[i] for column in run.value_columns),
            ))
    return out


def pairs_in(run):
    """Every pair of *run*, in order."""
    segments = Segments()
    segments.add(run, range(len(run)))
    return pairs_of(segments)


class RunCollector(Collector):
    """Keeps what the column sink hands over; drops the row sink's
    pairs."""

    def __init__(self):
        self.batches = []  # (partition ids, run) per collect_batch

    def collect(self, partition, pair):
        pass

    def collect_batch(self, partition_ids, run):
        self.batches.append((list(partition_ids), run))


class ReferenceSendPartitionList:
    """The per-pair Send Partition List ``SendPartitionList.add_many``
    must reproduce: one ``add`` per pair, a buffer closes on the pair
    that takes its bytes to the capacity."""

    def __init__(self, num_partitions, capacity):
        self.capacity = capacity
        self.open = [[[], 0] for _ in range(num_partitions)]  # [pairs, bytes]
        self.closed = []  # (partition, pairs, bytes) in closing order

    def add(self, partition, pair, size):
        buffer = self.open[partition]
        buffer[0].append(pair)
        buffer[1] += size
        if buffer[1] >= self.capacity:
            self.closed.append((partition, *buffer))
            self.open[partition] = [[], 0]

    def drain(self):
        return [(partition, *buffer)
                for partition, buffer in enumerate(self.open) if buffer[0]]
