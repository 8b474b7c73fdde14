"""Tests for cluster topology and the dstat-style sampler."""

import pytest

from repro import connect
from repro.common.units import MB
from repro.simulate import Cluster, ClusterSpec, MetricsSampler, Simulator

from .conftest import build_big_warehouse


@pytest.fixture()
def cluster():
    sim = Simulator()
    return Cluster(sim, ClusterSpec())


class TestClusterSpec:
    def test_defaults_match_testbed(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 8
        assert spec.num_workers == 7
        assert spec.slots_per_node == 4
        assert spec.total_slots == 28

    def test_too_small_rejected(self):
        from repro.common.errors import ExecutionError

        with pytest.raises(ExecutionError):
            ClusterSpec(num_nodes=1)


class TestCluster:
    def test_master_and_workers(self, cluster):
        assert cluster.master.node_id == 0
        assert len(cluster.workers) == 7
        assert cluster.workers[0].node_id == 1

    def test_network_transfer_cross_node(self, cluster):
        sim = cluster.sim
        a, b = cluster.workers[0], cluster.workers[1]
        done = []

        def proc():
            yield from cluster.network_transfer(a, b, 117 * MB)
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done[0] == pytest.approx(1.0, rel=1e-3)

    def test_same_node_transfer_free(self, cluster):
        sim = cluster.sim
        a = cluster.workers[0]
        done = []

        def proc():
            yield from cluster.network_transfer(a, a, 10 * MB)
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done == [0.0]

    def test_disk_read_charges_and_counts(self, cluster):
        sim = cluster.sim
        node = cluster.workers[0]

        def proc():
            yield from node.disk_read(200 * MB)

        sim.spawn(proc())
        sim.run()
        assert sim.now == pytest.approx(2.0, rel=1e-3)
        assert node.disk_bytes_read == pytest.approx(200 * MB)

    def test_compute_tracks_gauge(self, cluster):
        sim = cluster.sim
        node = cluster.workers[0]
        observed = []

        def proc():
            yield from node.compute(2.0)

        def watcher():
            yield sim.timeout(1.0)
            observed.append(node.computing)

        sim.spawn(proc())
        sim.spawn(watcher())
        sim.run()
        assert observed == [1]
        assert node.computing == 0


class TestMetricsSampler:
    def test_samples_collected_and_stop(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec())
        sampler = MetricsSampler(cluster, interval=1.0)
        sampler.start()
        node = cluster.workers[0]

        def proc():
            yield from node.compute(3.0)
            yield from node.disk_write(100 * MB)

        sim.spawn(proc())
        sim.run()
        sampler.stop()
        assert len(sampler.samples) >= 3
        # the first samples show a busy CPU (1 task / 28 slots)
        assert sampler.samples[0].cpu_utilization == pytest.approx(1 / 28)

    def test_disk_rate_appears(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec())
        sampler = MetricsSampler(cluster, interval=1.0)
        sampler.start()
        node = cluster.workers[0]

        def proc():
            yield from node.disk_write(300 * MB)  # 3 seconds at 100 MB/s

        sim.spawn(proc())
        sim.run()
        sampler.stop()
        total = sum(sample.disk_write_bps for sample in sampler.samples)
        assert total == pytest.approx(300 * MB, rel=0.35)

    def test_aggregates(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec())
        sampler = MetricsSampler(cluster, interval=1.0)
        sampler.start()
        node = cluster.workers[0]

        def proc():
            yield from node.compute(5.0)

        sim.spawn(proc())
        sim.run()
        sampler.stop()
        assert sampler.average("cpu_utilization") == pytest.approx(1 / 28, rel=0.01)
        assert sampler.peak("cpu_utilization") == pytest.approx(1 / 28)

    def test_no_samples_average_none(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec())
        sampler = MetricsSampler(cluster)
        assert sampler.average("cpu_utilization") is None
        assert sampler.peak("io_wait") is None

    def test_sample_times_count_from_start(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec())
        sampler = MetricsSampler(cluster, interval=1.0)
        node = cluster.workers[0]

        def proc():
            yield sim.timeout(0.75)
            sampler.start()
            yield from node.compute(2.5)

        sim.spawn(proc())
        sim.run()
        sampler.stop()
        assert [sample.time for sample in sampler.samples] == [1.0, 2.0]


@pytest.mark.parametrize("engine", ["hadoop", "datampi", "llap"])
def test_sampling_does_not_move_the_simulation(engine):
    """The 1 Hz sampler observes: a query sampled is the same query
    unsampled, to the last bit of its simulated seconds."""
    seconds = {}
    for with_metrics in (False, True):
        hdfs, metastore = build_big_warehouse()
        with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
            result = session.query(
                "SELECT grp, sum(val) FROM facts GROUP BY grp ORDER BY grp",
                with_metrics=with_metrics,
            )
        assert bool(result.execution.metrics) == with_metrics
        seconds[with_metrics] = repr(result.execution.total_seconds)
    assert seconds[True] == seconds[False]
