"""Tests for the simulated Hadoop engine: timing structure + correctness."""

from dataclasses import replace

import pytest

from repro import connect
from repro.engines.base import compare_result_rows
from repro.engines.hadoop import HadoopEngine
from repro.simulate import ClusterSpec, CostModel


@pytest.fixture()
def sessions(big_warehouse):
    hdfs, metastore = big_warehouse
    return (
        connect(engine="local", hdfs=hdfs, metastore=metastore),
        connect(engine="hadoop", hdfs=hdfs, metastore=metastore),
    )


GROUP_QUERY = "SELECT grp, count(*) c, sum(val) s FROM facts GROUP BY grp ORDER BY grp"


class TestCorrectness:
    def test_matches_reference(self, sessions):
        local, hadoop = sessions
        expected = local.query(GROUP_QUERY).rows
        actual = hadoop.query(GROUP_QUERY).rows
        assert compare_result_rows(expected, actual, ordered=True)

    def test_map_only_query(self, sessions):
        local, hadoop = sessions
        sql = "SELECT k FROM facts WHERE val > 99.5"
        assert compare_result_rows(
            local.query(sql).rows, hadoop.query(sql).rows, ordered=False
        )


class TestTimingStructure:
    def test_job_timing_monotonic(self, sessions):
        _local, hadoop = sessions
        result = hadoop.query(GROUP_QUERY)
        jobs = result.execution.jobs
        assert len(jobs) == 2
        for job in jobs:
            assert job.submitted <= job.first_task_started <= job.shuffle_done <= job.finished
        assert jobs[0].finished <= jobs[1].submitted  # sequential jobs

    def test_startup_includes_submit_and_jvm(self, sessions):
        _local, hadoop = sessions
        result = hadoop.query(GROUP_QUERY)
        costs = hadoop.engine.model.hadoop
        expected_min = costs.job_submit + costs.schedule_delay
        assert result.execution.jobs[0].startup >= expected_min

    def test_task_records(self, sessions):
        _local, hadoop = sessions
        result = hadoop.query(GROUP_QUERY)
        job = result.execution.jobs[0]
        maps = [t for t in job.tasks if t.kind == "map"]
        reduces = [t for t in job.tasks if t.kind == "reduce"]
        assert len(maps) == job.num_maps
        assert len(reduces) == job.num_reducers
        assert all(t.finished >= t.started >= t.scheduled for t in maps)
        assert sum(t.rows_read for t in maps) == 4000

    def test_waves_respect_slots(self, big_warehouse):
        hdfs, metastore = big_warehouse
        # 4 map slots total
        model = CostModel(cluster=ClusterSpec(num_nodes=3, slots_per_node=2))
        session = connect(engine="hadoop", hdfs=hdfs, metastore=metastore,
                          model=model)
        result = session.query("SELECT count(*) FROM facts")
        job = result.execution.jobs[0]
        maps = sorted(
            (t for t in job.tasks if t.kind == "map"), key=lambda t: t.started
        )
        if len(maps) > 4:
            # the 5th map cannot start before some first-wave map finished
            first_wave_end = min(t.finished for t in maps[:4])
            assert maps[4].started >= first_wave_end - 1e-6

    def test_shuffle_bytes_accounted(self, sessions):
        _local, hadoop = sessions
        result = hadoop.query(GROUP_QUERY)
        assert result.execution.jobs[0].shuffle_logical_bytes > 0

    def test_metrics_collection(self, sessions):
        _local, hadoop = sessions
        result = hadoop.query(GROUP_QUERY, with_metrics=True)
        samples = result.execution.metrics
        assert len(samples) > 10
        assert max(s.cpu_utilization for s in samples) > 0
        assert max(s.memory_used for s in samples) > 0

    def test_more_data_takes_longer(self, big_warehouse):
        hdfs, metastore = big_warehouse
        session = connect(engine="hadoop", hdfs=hdfs, metastore=metastore)
        small = session.query("SELECT count(*) FROM facts WHERE k < 100")
        big = session.query(GROUP_QUERY)
        # the grouped query shuffles and reduces; must cost more
        assert big.execution.total_seconds > 0
        assert small.execution.total_seconds > 0

    def test_deterministic(self, big_warehouse_factory):
        """Identically seeded warehouses give identical simulated times."""
        times = []
        for _ in range(2):
            hdfs, metastore = big_warehouse_factory()
            session = connect(engine="hadoop", hdfs=hdfs, metastore=metastore)
            times.append(session.query(GROUP_QUERY).execution.total_seconds)
        assert times[0] == times[1]


class TestCostKnobs:
    def test_slower_jvm_slows_job(self, big_warehouse):
        hdfs, metastore = big_warehouse
        base = CostModel()
        fast = HadoopEngine(hdfs, model=replace(
            base, hadoop=replace(base.hadoop, task_jvm_start=0.5)))
        slow = HadoopEngine(hdfs, model=replace(
            base, hadoop=replace(base.hadoop, task_jvm_start=3.0)))
        from repro.core.driver import Driver

        fast_time = Driver(hdfs, metastore, fast).query(GROUP_QUERY).execution.total_seconds
        slow_time = Driver(hdfs, metastore, slow).query(GROUP_QUERY).execution.total_seconds
        assert slow_time > fast_time
