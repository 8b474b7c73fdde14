"""Tests for the fault model: plans, injection, and engine recovery.

MapReduce retries failed task attempts; an MPI job aborts the gang and
re-runs — the classic fault-tolerance trade-off the paper's §I alludes
to (Hive on MapReduce "can scale out easily and tolerate faults").
Every fault here is declarative and seeded, so recovery paths are
exercised deterministically and results must stay byte-identical to the
fault-free run.
"""

from dataclasses import replace

import pytest

from repro import connect
from repro import engines as engine_registry
from repro.common.config import (
    FAULT_SPEC,
    RETRY_BACKOFF,
    RETRY_MAX,
    SPECULATIVE_EXECUTION,
)
from repro.common.errors import ConfigError, RetryExhaustedError
from repro.engines.base import compare_result_rows
from repro.engines.datampi import DataMPIEngine
from repro.simulate import CostModel, FaultInjector, FaultPlan, Simulator
from repro.simulate.cluster import Cluster, ClusterSpec

SQL = "SELECT grp, sum(val) FROM facts GROUP BY grp ORDER BY grp"


class TestFaultPlanParsing:
    def test_empty_spec(self):
        plan = FaultPlan.parse("")
        assert plan.empty

    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "seed:7; fail:0.1; crash:w2@30-90; slow:w1x4@10-20; "
            "disk:w3x0.5@5-15\nnic:w0x0.25@1-2"
        )
        assert plan.seed == 7
        assert plan.task_failure_rate == pytest.approx(0.1)
        crash = plan.node_crashes[0]
        assert (crash.worker, crash.at, crash.recover_at) == (2, 30.0, 90.0)
        straggler = plan.stragglers[0]
        assert (straggler.worker, straggler.factor) == (1, 4.0)
        resources = {window.resource for window in plan.degradations}
        assert resources == {"disk", "nic"}

    def test_crash_without_recovery(self):
        plan = FaultPlan.parse("crash:w5@12")
        assert plan.node_crashes[0].recover_at is None

    @pytest.mark.parametrize("spec", [
        "explode:w1@3",      # unknown kind
        "crash:w1x2@3",      # crash takes no factor
        "slow:w1@3",         # slow needs a factor
        "fail:1.5",          # rate out of range
        "crash:w1",          # missing @time
    ])
    def test_bad_clause_rejected(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)


def _injector(rate, seed=0):
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec())
    plan = FaultPlan(seed=seed, task_failure_rate=rate)
    return FaultInjector(sim, cluster, plan)


class TestAttemptDoom:
    def test_zero_rate_never_dooms(self):
        injector = _injector(0.0)
        assert injector.attempt_doom("job", "m0", 1) is None

    def test_deterministic_per_attempt(self):
        first = _injector(0.5, seed=3)
        second = _injector(0.5, seed=3)
        draws = [("j1", "m0", 1), ("j1", "m0", 2), ("j1", "r0", 1), ("j2", "m0", 1)]
        for key in draws:
            assert first.attempt_doom(*key) == second.attempt_doom(*key)

    def test_doom_fraction_bounded(self):
        injector = _injector(0.999, seed=1)
        fractions = [injector.attempt_doom("j", f"m{i}", 1) for i in range(200)]
        fired = [f for f in fractions if f is not None]
        assert fired, "at 0.999 almost every attempt must be doomed"
        assert all(0.05 <= f <= 0.95 for f in fired)

    def test_rate_scales_frequency(self):
        low = _injector(0.05, seed=1)
        high = _injector(0.5, seed=1)
        keys = [("j", f"m{i}", 1) for i in range(300)]
        low_hits = sum(low.attempt_doom(*k) is not None for k in keys)
        high_hits = sum(high.attempt_doom(*k) is not None for k in keys)
        assert high_hits > low_hits


def _run(engine, hdfs, metastore, conf=None):
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore, conf=conf)
    return session.query(SQL)


def _faulty_conf(rate, seed=1, **extra):
    conf = {FAULT_SPEC: f"seed:{seed}; fail:{rate}",
            RETRY_MAX: "10", RETRY_BACKOFF: "0.5"}
    conf.update(extra)
    return conf


class TestTaskFailures:
    @pytest.mark.parametrize("engine", ["hadoop", "datampi"])
    def test_results_survive_failures(self, big_warehouse, engine):
        hdfs, metastore = big_warehouse
        clean = _run(engine, hdfs, metastore)
        faulty = _run(engine, hdfs, metastore, _faulty_conf(0.3))
        assert compare_result_rows(clean.rows, faulty.rows, ordered=True)
        assert faulty.attempts > clean.attempts

    @pytest.mark.parametrize("engine", ["hadoop", "datampi"])
    def test_failures_cost_time(self, big_warehouse, engine):
        hdfs, metastore = big_warehouse
        clean = _run(engine, hdfs, metastore).execution.total_seconds
        faulty = _run(engine, hdfs, metastore, _faulty_conf(0.4))
        assert faulty.execution.total_seconds > clean

    def test_reduce_attempts_are_covered(self, big_warehouse):
        """Failure injection must reach reduce tasks, not only maps."""
        hdfs, metastore = big_warehouse
        result = _run("hadoop", hdfs, metastore, _faulty_conf(0.5))
        reduce_attempts = [
            task.attempts for job in result.execution.jobs
            for task in job.tasks if task.kind == "reduce"
        ]
        assert any(attempts > 1 for attempts in reduce_attempts)

    def test_gang_restart_counted(self, big_warehouse):
        hdfs, metastore = big_warehouse
        result = _run("datampi", hdfs, metastore, _faulty_conf(0.3))
        assert result.restarts > 0
        assert any(job.restarts for job in result.execution.jobs)

    @pytest.mark.parametrize("engine", ["hadoop", "datampi"])
    def test_deterministic_across_repeats(self, big_warehouse_factory, engine):
        """Same warehouse + same seeded fault plan -> bit-equal outcome
        (HDFS block placement shifts with prior query outputs, so each
        run gets a pristine warehouse)."""
        runs = []
        for _ in range(2):
            hdfs, metastore = big_warehouse_factory()
            runs.append(_run(engine, hdfs, metastore, _faulty_conf(0.3)))
        first, second = runs
        assert first.rows == second.rows
        assert first.execution.total_seconds == second.execution.total_seconds
        assert first.attempts == second.attempts

    def test_mpi_restart_coarser_than_mapreduce_retry(self, big_warehouse):
        """At the same failure rate, MapReduce's per-task retry loses a
        smaller *fraction* of the job than DataMPI's whole-job restart."""
        hdfs, metastore = big_warehouse
        overheads = {}
        for engine in ("hadoop", "datampi"):
            clean = _run(engine, hdfs, metastore).execution.total_seconds
            faulty = _run(engine, hdfs, metastore,
                          _faulty_conf(0.1)).execution.total_seconds
            overheads[engine] = (faulty - clean) / clean
        assert overheads["datampi"] > overheads["hadoop"]


class TestNodeCrash:
    @pytest.mark.parametrize("engine", ["hadoop", "datampi"])
    def test_crash_with_recovery(self, big_warehouse, engine):
        hdfs, metastore = big_warehouse
        clean = _run(engine, hdfs, metastore)
        crashed = _run(engine, hdfs, metastore,
                       {FAULT_SPEC: "crash:w1@6-60",
                        RETRY_MAX: "10", RETRY_BACKOFF: "0.5"})
        assert compare_result_rows(clean.rows, crashed.rows, ordered=True)
        kinds = {event.kind for event in crashed.fault_events}
        assert "node-crash" in kinds
        assert "node-recover" in kinds

    def test_crash_restarts_datampi_gang(self, big_warehouse):
        hdfs, metastore = big_warehouse
        crashed = _run("datampi", hdfs, metastore,
                       {FAULT_SPEC: "crash:w1@6-60",
                        RETRY_MAX: "10", RETRY_BACKOFF: "0.5"})
        assert crashed.restarts >= 1


class TestStragglers:
    @pytest.mark.parametrize("engine", ["hadoop", "datampi"])
    def test_straggler_costs_time(self, big_warehouse, engine):
        hdfs, metastore = big_warehouse
        clean = _run(engine, hdfs, metastore).execution.total_seconds
        slowed = _run(engine, hdfs, metastore,
                      {FAULT_SPEC: "slow:w1x6@0"}).execution.total_seconds
        assert slowed > clean

    def test_speculative_execution_beats_straggler(self, big_warehouse):
        hdfs, metastore = big_warehouse
        conf = {FAULT_SPEC: "slow:w0x8@0"}
        slowed = _run("hadoop", hdfs, metastore, conf)
        speculative = _run("hadoop", hdfs, metastore,
                           dict(conf, **{SPECULATIVE_EXECUTION: "true"}))
        assert (speculative.execution.total_seconds
                < slowed.execution.total_seconds)
        winners = [task.task_id for job in speculative.execution.jobs
                   for task in job.tasks if task.speculative]
        assert winners, "some task must be won by a speculative attempt"
        assert compare_result_rows(slowed.rows, speculative.rows, ordered=True)


# four staggered crash/recover windows: every submission of the first
# job meets a freshly dying node, so a small retry budget exhausts
_ROLLING_CRASHES = "crash:w1@5-7; crash:w2@12-14; crash:w3@18-20; crash:w4@24-26"


class TestRetryExhaustionAndFallback:
    def test_exhaustion_raises_without_fallback(self, big_warehouse):
        """An engine that declares no ``degrades_to`` lets the exhausted
        retries surface."""
        class NoDegrade(DataMPIEngine):
            degrades_to = None

        hdfs, metastore = big_warehouse
        model = CostModel(cluster=ClusterSpec(num_nodes=hdfs.num_workers + 1))
        session = connect(engine=NoDegrade(hdfs, model=model), hdfs=hdfs,
                          metastore=metastore,
                          conf={FAULT_SPEC: _ROLLING_CRASHES,
                                RETRY_MAX: "1", RETRY_BACKOFF: "0.5"})
        with pytest.raises(RetryExhaustedError):
            session.query(SQL)

    def test_graceful_degradation_to_mapreduce(self, big_warehouse):
        """No conf key asks for it: DataMPI declares ``degrades_to =
        "hadoop"``, so exhausted retries re-run the plan there."""
        hdfs, metastore = big_warehouse
        clean = _run("datampi", hdfs, metastore)
        degraded = _run("datampi", hdfs, metastore,
                        {FAULT_SPEC: _ROLLING_CRASHES,
                         RETRY_MAX: "1", RETRY_BACKOFF: "0.5"})
        assert degraded.fallback_engine == "hadoop"
        assert compare_result_rows(clean.rows, degraded.rows, ordered=True)

    def test_fallback_runs_under_the_primary_model(self, big_warehouse,
                                                   monkeypatch):
        """The degraded run is priced by the session's model, hadoop
        block included: a slower JVM spawn in it slows the fallback."""
        hdfs, metastore = big_warehouse
        created = []
        create = engine_registry.create

        def recording(*args, **kwargs):
            created.append(create(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(engine_registry, "create", recording)
        conf = {FAULT_SPEC: _ROLLING_CRASHES, RETRY_MAX: "1",
                RETRY_BACKOFF: "0.5"}
        base = CostModel(cluster=ClusterSpec(num_nodes=hdfs.num_workers + 1))
        slow = replace(base, hadoop=replace(base.hadoop, task_jvm_start=3.0))
        seconds = []
        for model in (base, slow):
            session = connect(engine="datampi", hdfs=hdfs,
                              metastore=metastore, conf=conf, model=model)
            result = session.query(SQL)
            assert result.fallback_engine == "hadoop"
            fallback = created[-1]
            assert fallback.name == "hadoop"
            assert fallback.model is session.engine.model is model
            seconds.append(result.execution.total_seconds)
        assert seconds[1] > seconds[0]

    def test_breaker_fallback_shares_the_session_model(self):
        model = replace(CostModel(), hadoop=replace(CostModel().hadoop,
                                                    task_jvm_start=3.0))
        with connect(engine="datampi", model=model) as session:
            fallback = session.engine_named("hadoop")
            assert fallback.model is session.engine.model is model
            assert session.engine_named("mr") is fallback  # one per engine

    def test_no_fallback_marker_on_clean_run(self, big_warehouse):
        hdfs, metastore = big_warehouse
        assert _run("datampi", hdfs, metastore).fallback_engine is None


COUNT_SQL = "SELECT count(*) FROM facts"


class TestConcurrentFailureIsolation:
    """Faults striking one query in a shared cluster fell only that
    query: it alone retries or falls back, while concurrently running
    bystanders keep their engine, timeline and rows."""

    def test_crash_fells_only_the_struck_query(self, big_warehouse):
        hdfs, metastore = big_warehouse
        solo = {sql: connect(engine="datampi", hdfs=hdfs,
                             metastore=metastore).query(sql).rows
                for sql in (SQL, COUNT_SQL)}
        conf = {FAULT_SPEC: "crash:w1@5-7; crash:w2@9-11",
                RETRY_MAX: "1", RETRY_BACKOFF: "0.5"}
        with connect(engine="datampi", hdfs=hdfs, metastore=metastore,
                     conf=conf) as session:
            struck = session.submit(SQL)
            # let both crash windows land while only the struck query
            # runs; it exhausts its retry budget and degrades to hadoop
            session.scheduler.runtime.sim.run(until=15.0)
            bystanders = [session.submit(SQL), session.submit(COUNT_SQL)]
            session.scheduler.drain()

            struck_result = struck.result()
            assert struck_result.fallback_engine == "hadoop"
            assert compare_result_rows(solo[SQL], struck_result.rows,
                                       ordered=True)
            # the bystanders overlapped the struck query's fallback run
            # on the shared cluster, yet stayed on datampi untouched
            assert struck.finished_at > bystanders[0].admitted_at
            for handle, sql in zip(bystanders, (SQL, COUNT_SQL)):
                result = handle.result()
                assert result.fallback_engine is None
                assert result.execution.total_attempts == sum(
                    len(job.tasks) for job in result.execution.jobs
                ), "bystander tasks must succeed on their first attempt"
                assert compare_result_rows(solo[sql], result.rows,
                                           ordered=True)

    def test_transient_failures_retry_without_crosstalk(self, big_warehouse):
        """Random task failures under a shared injector: every query
        retries its own tasks; results all match the clean solo run."""
        hdfs, metastore = big_warehouse
        solo = connect(engine="datampi", hdfs=hdfs,
                       metastore=metastore).query(SQL).rows
        conf = _faulty_conf(0.05, seed=11)
        with connect(engine="datampi", hdfs=hdfs, metastore=metastore,
                     conf=conf) as session:
            handles = [session.submit(SQL) for _ in range(3)]
            session.scheduler.drain()
            for handle in handles:
                result = handle.result()
                assert result.fallback_engine is None
                assert compare_result_rows(solo, result.rows, ordered=True)
