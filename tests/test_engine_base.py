"""Unit tests for the task machinery every engine shares
(:mod:`repro.engines.base`): map compute, placement, split-read charging."""

from types import SimpleNamespace

import pytest

from repro.common.config import Configuration
from repro.common.units import MB
from repro.engines.base import (
    MapOutputCollector,
    TaggedSplit,
    charge_split_read,
    expand_job_splits,
    make_batches,
    map_cpu_ms,
    pick_node,
    run_map_compute,
)
from repro.plan.analyzer import Analyzer
from repro.plan.optimizer import prune_columns
from repro.plan.physical import PhysicalCompiler
from repro.simulate import Cluster, ClusterSpec, Simulator
from repro.simulate.costmodel import CpuModel
from repro.sql import parse_statement
from repro.storage.formats.orc import OrcStoredFile

from .conftest import build_big_warehouse
from .shuffle_reference import pairs_of


def test_make_batches_matches_engine_chunking():
    rows = [(i,) for i in range(10)]
    total = 3 * 2 ** 20  # 3 MB at a 1 MB target -> 3 batches
    batches = make_batches(rows, total_bytes=total, target_mb=1.0, min_rows=4)
    assert [chunk for chunk, _ in batches] == [rows[0:4], rows[4:8], rows[8:10]]
    assert sum(nbytes for _, nbytes in batches) == pytest.approx(total)
    # Empty scans still charge their bytes through a single empty batch.
    assert make_batches([], total_bytes=77.0, target_mb=8.0, min_rows=200) \
        == [([], 77.0)]


# -- run_map_compute ---------------------------------------------------------

@pytest.fixture(scope="module")
def group_by_split():
    """First split of ``SELECT grp, SUM(val) FROM facts GROUP BY grp``."""
    hdfs, metastore = build_big_warehouse()
    node = prune_columns(Analyzer(metastore).analyze(
        parse_statement("SELECT grp, SUM(val) FROM facts GROUP BY grp")
    ))
    plan = PhysicalCompiler(metastore, hdfs, Configuration(), "t").compile(
        node, "/tmp/out", "text"
    )
    return expand_job_splits(plan.jobs[0], hdfs)[0]


def test_map_compute_records_once_per_batch(group_by_split):
    collector = MapOutputCollector(3)
    compute = run_map_compute(
        group_by_split, collector, num_partitions=3, small_tables=None,
        map_only=False,
        batching=(group_by_split.logical_bytes / MB / 4, 1),
        record=lambda: collector.total_bytes,
    )
    assert compute.bytes_to_read == group_by_split.logical_bytes
    assert len(compute.records) == 4
    assert sum(nbytes for nbytes, _ in compute.records) \
        == pytest.approx(compute.bytes_to_read)
    # the map-side aggregation flushes at close, after the last record
    assert compute.records[-1][1] <= collector.total_bytes
    assert compute.result.rows_read == group_by_split.split.row_count > 4
    assert compute.result.kv_bytes == collector.total_bytes > 0


def test_map_compute_without_batching_is_one_batch(group_by_split):
    batched = MapOutputCollector(3)
    run_map_compute(
        group_by_split, batched, num_partitions=3, small_tables=None,
        map_only=False, batching=(1.0, 1),
    )
    whole = MapOutputCollector(3)
    compute = run_map_compute(
        group_by_split, whole, num_partitions=3, small_tables=None,
        map_only=False,
    )
    assert compute.records == [(compute.bytes_to_read, None)]
    assert list(map(pairs_of, whole.partitions)) == \
        list(map(pairs_of, batched.partitions))
    assert any(len(segments) for segments in whole.partitions)


def test_orc_decode_charge_follows_the_class_not_its_name():
    class RenamedColumnar(OrcStoredFile):
        pass

    cpu = CpuModel(map_ms_per_mb=10.0, orc_decode_ms_per_mb=4.0)

    def tagged(stored):
        return TaggedSplit(SimpleNamespace(stored=stored), 0, [], None)

    orc = tagged(object.__new__(RenamedColumnar))
    assert map_cpu_ms(cpu, orc, 2 * MB) == 28.0
    assert map_cpu_ms(cpu, orc, 2 * MB, decode_bytes=MB) == 24.0
    assert map_cpu_ms(cpu, tagged(object()), 2 * MB) == 20.0


# -- pick_node ---------------------------------------------------------------

@pytest.fixture()
def cluster():
    return Cluster(Simulator(), ClusterSpec(num_nodes=5))  # 4 workers


class TestPickNode:
    def test_first_execution_keeps_preferred(self, cluster):
        assert pick_node(cluster, 2, 0) == 2
        assert pick_node(cluster, 2, 0, spread=3) == 2

    def test_retry_moves_off_preferred(self, cluster):
        assert pick_node(cluster, 2, 2) == 0  # (2 + 2) % 4

    def test_blacklist_honoured_then_relaxed(self, cluster):
        assert pick_node(cluster, 1, 0, blacklist={1}) == 2  # [0, 2, 3][1]
        # every live node blacklisted: ignore the blacklist, keep running
        assert pick_node(cluster, 1, 0, blacklist={0, 1, 2, 3}) == 1

    def test_dead_and_draining_nodes_are_skipped(self, cluster):
        cluster.workers[1].alive = False
        cluster.workers[2].draining = True
        assert pick_node(cluster, 1, 0) == 3  # [0, 3][1 % 2]
        assert pick_node(cluster, 2, 0) == 0

    def test_all_draining_falls_back_to_alive(self, cluster):
        for node in cluster.workers:
            node.draining = True
        cluster.workers[0].alive = False
        assert pick_node(cluster, 2, 0) == 2
        assert pick_node(cluster, 0, 0) == 1  # [1, 2, 3][0]

    def test_all_dead_returns_preferred(self, cluster):
        for node in cluster.workers:
            node.alive = False
        assert pick_node(cluster, 3, 5, spread=2) == 3

    def test_spread_applies_only_when_preferred_is_gone(self, cluster):
        assert pick_node(cluster, 1, 2, spread=1) == 3  # preferred live
        cluster.workers[1].alive = False
        # survivors [0, 2, 3]: displaced tasks fan out by their own index
        assert [pick_node(cluster, 1, 0, spread=s) for s in range(3)] \
            == [2, 3, 0]


# -- charge_split_read -------------------------------------------------------

def _drive(cluster, generator):
    cluster.sim.spawn(generator, "reader")
    cluster.sim.run()
    return cluster.sim.now


def _split_on(*hosts):
    return TaggedSplit(SimpleNamespace(hosts=list(hosts)), 0, [], None)


class TestChargeSplitRead:
    NBYTES = 50 * MB

    def test_local_read_charges_only_the_local_disk(self, cluster):
        node = cluster.workers[1]
        elapsed = _drive(cluster, charge_split_read(
            cluster, node, 1, _split_on(1, 3), self.NBYTES))
        assert elapsed == pytest.approx(self.NBYTES / cluster.spec.disk_bandwidth)
        assert node.disk_bytes_read == pytest.approx(self.NBYTES)
        assert node.nic_rx.progressed_bytes() == 0

    def test_remote_read_charges_replica_disk_then_network(self, cluster):
        node, replica = cluster.workers[0], cluster.workers[3]
        cluster.workers[2].alive = False  # first replica host is down
        elapsed = _drive(cluster, charge_split_read(
            cluster, node, 0, _split_on(2, 3), self.NBYTES))
        assert elapsed == pytest.approx(
            self.NBYTES / cluster.spec.disk_bandwidth
            + self.NBYTES / cluster.spec.nic_bandwidth
        )
        assert replica.disk_bytes_read == pytest.approx(self.NBYTES)
        assert node.disk_bytes_read == 0
        assert node.nic_rx.progressed_bytes() == pytest.approx(self.NBYTES)

    @pytest.mark.parametrize("node_index", [1, 0], ids=["local", "remote"])
    def test_zero_bytes_is_a_no_op(self, cluster, node_index):
        node = cluster.workers[node_index]
        assert list(charge_split_read(
            cluster, node, node_index, _split_on(1), 0.0)) == []
        # ...which is what the node primitives did on their own: the early
        # return cannot have changed any engine's simulated time
        assert list(node.disk_read(0.0)) == []
        assert list(cluster.network_transfer(cluster.workers[1], node, 0.0)) == []
