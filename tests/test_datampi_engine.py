"""Tests for the DataMPI engine: O/A structure, knobs, paper behaviours."""

from dataclasses import replace

import pytest

from repro import connect
from repro.common.config import Configuration
from repro.core.driver import Driver
from repro.engines.base import compare_result_rows
from repro.engines.datampi import DataMPIEngine
from repro.engines.datampi.engine import _gc_factor, _partition_buffer_bytes
from repro.simulate import CostModel


GROUP_QUERY = "SELECT grp, count(*) c, sum(val) s FROM facts GROUP BY grp ORDER BY grp"


@pytest.fixture()
def sessions(big_warehouse):
    hdfs, metastore = big_warehouse
    return (
        connect(engine="local", hdfs=hdfs, metastore=metastore),
        connect(engine="datampi", hdfs=hdfs, metastore=metastore),
    )


class TestCorrectness:
    def test_matches_reference(self, sessions):
        local, datampi = sessions
        assert compare_result_rows(
            local.query(GROUP_QUERY).rows, datampi.query(GROUP_QUERY).rows, ordered=True
        )

    def test_blocking_style_same_rows(self, big_warehouse):
        hdfs, metastore = big_warehouse
        local = connect(engine="local", hdfs=hdfs, metastore=metastore)
        expected = local.query(GROUP_QUERY).rows
        conf = Configuration({"datampi.shuffle.nonblocking": "false"})
        blocking = connect(engine="datampi", hdfs=hdfs, metastore=metastore, conf=conf)
        assert compare_result_rows(expected, blocking.query(GROUP_QUERY).rows, ordered=True)

    def test_map_only(self, sessions):
        local, datampi = sessions
        sql = "SELECT k, val FROM facts WHERE grp = 'g3'"
        assert compare_result_rows(
            local.query(sql).rows, datampi.query(sql).rows, ordered=False
        )


class TestBipartiteStructure:
    def test_o_tasks_capped_by_slots(self, sessions):
        _local, datampi = sessions
        result = datampi.query(GROUP_QUERY)
        job = result.execution.jobs[0]
        o_tasks = [t for t in job.tasks if t.kind == "o"]
        assert len(o_tasks) == job.num_maps
        assert len(o_tasks) <= 28  # never more O tasks than slots

    def test_a_after_all_o(self, sessions):
        _local, datampi = sessions
        result = datampi.query(GROUP_QUERY)
        job = result.execution.jobs[0]
        o_end = max(t.finished for t in job.tasks if t.kind == "o")
        a_start = min(t.started for t in job.tasks if t.kind == "a")
        assert a_start >= o_end - 1e-6  # A tasks run only after every O task

    def test_shuffle_overlaps_o_phase(self, sessions):
        _local, datampi = sessions
        result = datampi.query(GROUP_QUERY)
        job = result.execution.jobs[0]
        # shuffle completes essentially when the O phase ends (overlap),
        # not after a separate copy phase
        o_end = max(t.finished for t in job.tasks if t.kind == "o")
        assert job.shuffle_done <= o_end + 1.0

    def test_send_events_recorded(self, sessions):
        _local, datampi = sessions
        result = datampi.query(GROUP_QUERY)
        job = result.execution.jobs[0]
        assert sum(len(t.send_events) for t in job.tasks if t.kind == "o") > 0


class TestPaperBehaviours:
    def test_faster_than_hadoop(self, big_warehouse):
        hdfs, metastore = big_warehouse
        hadoop = connect(engine="hadoop", hdfs=hdfs, metastore=metastore)
        datampi = connect(engine="datampi", hdfs=hdfs, metastore=metastore)
        hadoop_time = hadoop.query(GROUP_QUERY).execution.total_seconds
        datampi_time = datampi.query(GROUP_QUERY).execution.total_seconds
        assert datampi_time < hadoop_time

    def test_startup_shorter_than_hadoop(self, big_warehouse):
        hdfs, metastore = big_warehouse
        hadoop = connect(engine="hadoop", hdfs=hdfs, metastore=metastore)
        datampi = connect(engine="datampi", hdfs=hdfs, metastore=metastore)
        hadoop_startup = hadoop.query(GROUP_QUERY).execution.jobs[0].startup
        datampi_startup = datampi.query(GROUP_QUERY).execution.jobs[0].startup
        assert datampi_startup < hadoop_startup

    def test_blocking_slower_than_nonblocking(self, big_warehouse):
        hdfs, metastore = big_warehouse
        times = {}
        for label, flag in (("nb", "true"), ("blk", "false")):
            conf = Configuration({"datampi.shuffle.nonblocking": flag})
            session = connect(engine="datampi", hdfs=hdfs, metastore=metastore, conf=conf)
            times[label] = session.query(GROUP_QUERY).execution.total_seconds
        assert times["blk"] >= times["nb"]

    def test_extreme_memory_percent_hurts(self, big_warehouse):
        hdfs, metastore = big_warehouse
        times = {}
        for percent in ("0.4", "0.95"):
            conf = Configuration({"hive.datampi.memusedpercent": percent})
            session = connect(engine="datampi", hdfs=hdfs, metastore=metastore, conf=conf)
            times[percent] = session.query(GROUP_QUERY).execution.total_seconds
        assert times["0.95"] > times["0.4"]

    def test_enhanced_parallelism_changes_reducers(self, big_warehouse):
        hdfs, metastore = big_warehouse
        counts = {}
        for mode in ("default", "enhanced"):
            conf = Configuration({"hive.datampi.parallelism": mode})
            session = connect(engine="datampi", hdfs=hdfs, metastore=metastore, conf=conf)
            result = session.query(GROUP_QUERY)
            jobs = result.execution.jobs
            counts[mode] = (jobs[0].num_reducers, jobs[-1].num_reducers)
        # enhanced: #A = #O on intermediate stages, 1 on the last stage
        assert counts["enhanced"][1] == 1
        assert counts["enhanced"][0] >= counts["default"][0]

    def test_deterministic(self, big_warehouse_factory):
        """Identically seeded warehouses give identical simulated times."""
        times = []
        for _ in range(2):
            hdfs, metastore = big_warehouse_factory()
            session = connect(engine="datampi", hdfs=hdfs, metastore=metastore)
            times.append(session.query(GROUP_QUERY).execution.total_seconds)
        assert times[0] == times[1]


class TestCostKnobs:
    def test_send_setup_slows_shuffle(self, big_warehouse):
        hdfs, metastore = big_warehouse
        base = CostModel()
        fast = DataMPIEngine(hdfs, model=replace(
            base, datampi=replace(base.datampi, send_setup_seconds=0.0)))
        slow = DataMPIEngine(hdfs, model=replace(
            base, datampi=replace(base.datampi, send_setup_seconds=0.05)))
        fast_time = Driver(hdfs, metastore, fast).query(GROUP_QUERY).execution.total_seconds
        slow_time = Driver(hdfs, metastore, slow).query(GROUP_QUERY).execution.total_seconds
        assert slow_time >= fast_time

    def test_gc_factor_shape(self):
        costs = CostModel().datampi
        low = _gc_factor(costs, 0.1)
        mid = _gc_factor(costs, 0.4)
        high = _gc_factor(costs, 0.95)
        assert low < mid < high
        assert high <= 2.5  # capped

    def test_partition_buffer_scales_with_percent(self):
        costs = CostModel().datampi
        assert _partition_buffer_bytes(costs, 0.05) < _partition_buffer_bytes(costs, 0.4)
        assert _partition_buffer_bytes(costs, 0.4) == pytest.approx(512 * 1024)
        assert _partition_buffer_bytes(costs, 0.99) <= 2 * 1024 * 1024
