"""Elastic membership, heartbeat failure detection, query deadlines and
the per-engine circuit breaker."""

import pytest

from repro import connect
from repro.common.config import (
    BREAKER_THRESHOLD,
    FAULT_SPEC,
    HEARTBEAT_ENABLED,
    QUERY_DEADLINE,
)
from repro.common.errors import ConfigError, QueryTimeoutError
from repro.sched.scheduler import EngineBreaker
from repro.simulate.chaos import assert_clean_ledger
from repro.simulate.faults import FaultPlan

from .conftest import build_big_warehouse

QUERY = "SELECT grp, count(*) FROM facts GROUP BY grp"


def _session(engine, **conf):
    hdfs, metastore = build_big_warehouse()
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
    for key, value in conf.items():
        session.conf.set(key, value)
    return session


def _kinds(scheduler):
    return [event.kind for event in scheduler.runtime.injector.events]


# -- fault grammar: membership clauses ---------------------------------------

def test_parse_membership_clauses():
    plan = FaultPlan.parse("seed:5; scale-up:w7@30; drain:w3@50")
    assert len(plan.scale_ups) == 1 and plan.scale_ups[0].worker == 7
    assert len(plan.drains) == 1 and plan.drains[0].at == 50.0


def test_membership_clauses_reject_factor_and_window():
    with pytest.raises(ConfigError):
        FaultPlan.parse("scale-up:w7x2@30")
    with pytest.raises(ConfigError):
        FaultPlan.parse("drain:w3@50-80")


def test_overlapping_crash_windows_rejected():
    with pytest.raises(ConfigError, match="overlapping crash windows"):
        FaultPlan.parse("crash:w2@10-50; crash:w2@40-80")


def test_duplicate_open_ended_crash_rejected():
    with pytest.raises(ConfigError, match="overlapping"):
        FaultPlan.parse("crash:w2@10; crash:w2@90")


def test_nonoverlapping_windows_and_distinct_workers_ok():
    plan = FaultPlan.parse("crash:w2@10-20; crash:w2@30-40; crash:w3@15-35")
    assert len(plan.node_crashes) == 3


def test_same_window_different_kinds_ok():
    plan = FaultPlan.parse("slow:w2x3@10-50; disk:w2x0.5@10-50")
    assert len(plan.stragglers) == 1 and len(plan.degradations) == 1


# -- elastic membership -------------------------------------------------------

def test_scale_up_joins_and_query_succeeds():
    session = _session("hadoop")
    session.conf.set(FAULT_SPEC, "scale-up:w7@5")
    try:
        handle = session.submit(QUERY)
        scheduler = session.scheduler
        scheduler.drain()
        assert handle.result().rows
        assert "node-join" in _kinds(scheduler)
        assert len(scheduler.runtime.cluster.workers) == 8
        assert scheduler.runtime.cluster.workers[7].schedulable
    finally:
        session.close()


def test_drain_decommissions_gracefully():
    session = _session("hadoop")
    session.conf.set(FAULT_SPEC, "drain:w3@2")
    try:
        handle = session.submit(QUERY)
        scheduler = session.scheduler
        scheduler.drain()
        assert handle.result().rows
        kinds = _kinds(scheduler)
        assert "drain-start" in kinds
        assert "node-drained" in kinds
        node = scheduler.runtime.cluster.workers[3]
        assert node.alive and node.draining and not node.schedulable
        assert_clean_ledger(scheduler.runtime.leases.ledger)
    finally:
        session.close()


def test_drained_worker_recommissioned_by_scale_up():
    session = _session("llap")
    session.conf.set(FAULT_SPEC, "drain:w2@2; scale-up:w2@40")
    try:
        handle = session.submit(QUERY)
        scheduler = session.scheduler
        scheduler.drain()
        assert handle.result().rows
        assert scheduler.runtime.cluster.workers[2].schedulable
    finally:
        session.close()


# -- heartbeat failure detection ----------------------------------------------

def test_crash_walks_suspect_then_declared_then_rejoin():
    session = _session("hadoop")
    session.conf.set(FAULT_SPEC, "crash:w1@10-60")
    try:
        handle = session.submit(QUERY)
        scheduler = session.scheduler
        scheduler.drain()
        assert handle.result().rows
        kinds = _kinds(scheduler)
        for kind in ("node-crash", "node-suspect", "node-dead-declared",
                     "node-recover", "node-rejoin"):
            assert kind in kinds, kind
        assert kinds.index("node-suspect") < kinds.index("node-dead-declared")
    finally:
        session.close()


def test_straggler_is_suspected_but_never_declared_dead():
    session = _session("hadoop")
    session.conf.set(FAULT_SPEC, "slow:w2x8@2-120")
    try:
        handle = session.submit(QUERY)
        scheduler = session.scheduler
        scheduler.drain()
        assert handle.result().rows
        kinds = _kinds(scheduler)
        assert "node-suspect" in kinds
        assert "suspect-cleared" in kinds
        assert "node-dead-declared" not in kinds
    finally:
        session.close()


def test_heartbeat_disabled_declares_at_crash_instant():
    session = _session("hadoop")
    session.conf.set(FAULT_SPEC, "crash:w1@10-60")
    session.conf.set(HEARTBEAT_ENABLED, "false")
    try:
        handle = session.submit(QUERY)
        scheduler = session.scheduler
        scheduler.drain()
        assert handle.result().rows
        kinds = _kinds(scheduler)
        assert "node-crash" in kinds
        assert "node-suspect" not in kinds
    finally:
        session.close()


# -- query deadlines ----------------------------------------------------------

def test_deadline_miss_raises_and_frees_slots():
    session = _session("hadoop")
    try:
        handle = session.submit(QUERY, deadline=5.0)
        scheduler = session.scheduler
        scheduler.drain()
        assert handle.deadline_missed
        with pytest.raises(QueryTimeoutError, match="deadline"):
            handle.result()
        assert scheduler.summary()["deadline_misses"] == 1
        # cancellation returned every lease the dead query held
        assert_clean_ledger(scheduler.runtime.leases.ledger)
        # and the cluster still serves the next query
        follow_up = session.submit(QUERY)
        scheduler.drain()
        assert follow_up.result().rows
    finally:
        session.close()


def test_generous_deadline_succeeds():
    session = _session("llap")
    try:
        handle = session.submit(QUERY, deadline=10_000.0)
        session.scheduler.drain()
        assert handle.result().rows
        assert not handle.deadline_missed
    finally:
        session.close()


def test_session_conf_deadline_applies_to_submits():
    session = _session("hadoop")
    session.conf.set(QUERY_DEADLINE, 5.0)
    try:
        handle = session.submit(QUERY)
        session.scheduler.drain()
        assert handle.deadline_missed
    finally:
        session.close()


def test_deadline_validation():
    session = _session("hadoop")
    try:
        with pytest.raises(ConfigError):
            session.submit(QUERY, deadline=0.0)
        with pytest.raises(ConfigError):
            session.submit(QUERY, retry_budget=-1)
    finally:
        session.close()


# -- circuit breaker ----------------------------------------------------------

def test_breaker_trips_cools_down_and_half_opens():
    breaker = EngineBreaker(threshold=2, cooldown=30.0)
    assert breaker.allows(0.0)
    assert not breaker.record_failure(1.0)
    assert breaker.record_failure(2.0)  # second consecutive failure trips
    assert breaker.trips == 1
    assert not breaker.allows(10.0)  # still cooling down
    assert breaker.allows(32.0)  # one half-open probe
    assert not breaker.allows(33.0)  # only one until the probe reports
    breaker.record_success()
    assert breaker.allows(34.0)  # closed again


def test_breaker_reopens_when_probe_fails():
    breaker = EngineBreaker(threshold=1, cooldown=10.0)
    assert breaker.record_failure(0.0)
    assert breaker.allows(11.0)  # the probe
    assert breaker.record_failure(11.5)  # probe failed: re-trip
    assert breaker.trips == 2
    assert not breaker.allows(12.0)


def test_open_breaker_degrades_to_fallback_engine():
    session = _session("llap")
    session.conf.set(BREAKER_THRESHOLD, 1)
    try:
        scheduler = session.scheduler
        now = scheduler.runtime.sim.now
        scheduler._breaker("llap").record_failure(now)  # trip it by hand
        handle = session.submit(QUERY)
        scheduler.drain()
        result = handle.result()
        assert result.rows
        # llap declares degrades_to = "hadoop": the query ran there
        assert result.fallback_engine == "hadoop"
        assert any(event[1] == "breaker-degrade" for event in scheduler.events)
    finally:
        session.close()


def test_breaker_disabled_by_default():
    session = _session("llap")
    try:
        scheduler = session.scheduler
        scheduler._breaker("llap").record_failure(0.0)
        handle = session.submit(QUERY)
        scheduler.drain()
        assert handle.result().fallback_engine is None
    finally:
        session.close()


# -- result-cache hits report clean fault metadata ----------------------------

def test_cache_hit_reports_no_fault_fields():
    session = _session("llap")
    try:
        first = session.query(QUERY)
        assert not first.cache_hit
        second = session.query(QUERY)
        assert second.cache_hit
        assert second.rows == first.rows
        assert second.execution is None
        assert second.attempts == 0
        assert second.restarts == 0
        assert second.fault_events == []
        assert second.fallback_engine is None
    finally:
        session.close()


def test_cache_hit_under_faults_still_reports_clean():
    session = _session("llap")
    session.conf.set(FAULT_SPEC, "slow:w1x2@0-1000")
    try:
        first = session.query(QUERY)
        assert first.fault_events  # the real run saw the straggler
        second = session.query(QUERY)
        assert second.cache_hit
        assert second.fault_events == []
        assert second.attempts == 0
    finally:
        session.close()
