"""The chaos harness and its lease-ledger audit (gang checkout under
daemon crashes, executor slots, invariant enforcement, replay)."""

import pytest

from repro import connect
from repro.common.config import FAULT_SPEC
from repro.simulate.chaos import (
    CHAOS_QUERIES,
    ChaosInvariantError,
    assert_clean_ledger,
    generate_schedule,
    run_chaos,
    verify_replay,
)
from repro.simulate.faults import FaultPlan
from repro.simulate.leases import LeaseLedger

from .conftest import build_big_warehouse

QUERY = "SELECT grp, count(*) FROM facts GROUP BY grp"


def _run_with_faults(engine, spec, queries=2, **conf):
    hdfs, metastore = build_big_warehouse()
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
    session.conf.set(FAULT_SPEC, spec)
    for key, value in conf.items():
        session.conf.set(key, value)
    try:
        handles = [session.submit(QUERY) for _ in range(queries)]
        scheduler = session.scheduler
        scheduler.drain()
        for handle in handles:
            assert handle.result().rows
        return scheduler.runtime.leases.ledger
    finally:
        session.close()


# -- ledger audit unit tests --------------------------------------------------

def test_clean_ledger_passes():
    ledger = LeaseLedger()
    ledger.events.append((1.0, "grant", "node1.slots", "q1"))
    ledger.events.append((2.0, "release", "node1.slots", "q1"))
    assert_clean_ledger(ledger)  # no raise


def test_double_release_detected():
    ledger = LeaseLedger()
    ledger.events.append((1.0, "grant", "node1.slots", "q1"))
    ledger.events.append((2.0, "release", "node1.slots", "q1"))
    ledger.events.append((3.0, "release", "node1.slots", "q1"))
    with pytest.raises(ChaosInvariantError, match="released more"):
        assert_clean_ledger(ledger)


def test_lost_slot_detected():
    ledger = LeaseLedger()
    ledger.owner_usage("q7").held = 2
    with pytest.raises(ChaosInvariantError, match="q7=2"):
        assert_clean_ledger(ledger)


def test_long_lived_owners_exempt():
    ledger = LeaseLedger()
    ledger.owner_usage("llap-daemons").held = 12
    ledger.owner_usage("-").held = 1
    assert_clean_ledger(ledger)  # parked daemons hold slots by design


def test_oversubscription_detected():
    ledger = LeaseLedger()
    ledger.max_in_use["node1.slots"] = 5
    ledger.capacity["node1.slots"] = 4
    with pytest.raises(ChaosInvariantError, match="oversubscribed"):
        assert_clean_ledger(ledger)


# -- gang leases under crashes (DataMPI all-or-nothing) -----------------------

def test_datampi_gang_checkout_survives_crash():
    """A node crash mid-job trips the gang; ``release_unclaimed`` plus
    the rank finallys must leave zero orphaned slots in the ledger."""
    ledger = _run_with_faults(
        "datampi", "seed:3; crash:w2@6-60")
    assert ledger.gang_grants  # the all-or-nothing grants happened
    assert_clean_ledger(ledger)


def test_datampi_repeated_crashes_clean_ledger():
    ledger = _run_with_faults(
        "datampi", "seed:5; crash:w1@4-30; crash:w3@8-40")
    assert_clean_ledger(ledger)


def test_llap_executor_slots_survive_daemon_crash():
    """Killing a daemon mid-query interrupts its fragments; every
    executor-slot lease must be returned (the daemons' own node slots
    are exempt long-lived holders)."""
    ledger = _run_with_faults("llap", "seed:2; crash:w1@5-80")
    assert_clean_ledger(ledger)
    # every query owner balanced exactly
    for owner, usage in ledger.usage.items():
        if owner.startswith("wq"):
            assert usage.held == 0, owner


# -- schedule generation ------------------------------------------------------

def test_generate_schedule_is_deterministic():
    first = generate_schedule(42)
    second = generate_schedule(42)
    assert first.spec == second.spec
    assert first.spec != generate_schedule(43).spec


def test_generated_schedules_parse_and_target_distinct_workers():
    for seed in range(20):
        schedule = generate_schedule(seed)
        plan = FaultPlan.parse(schedule.spec)  # grammar + overlap checks
        targeted = [c.worker for c in plan.node_crashes]
        targeted += [s.worker for s in plan.stragglers]
        targeted += [d.worker for d in plan.drains]
        assert len(targeted) == len(set(targeted)), schedule.spec
        assert any(c.recover_at is not None for c in plan.node_crashes)


def test_generate_schedule_needs_enough_workers():
    with pytest.raises(Exception):
        generate_schedule(0, num_workers=2)


# -- the chaos runner ---------------------------------------------------------

@pytest.mark.parametrize("engine,seed", [
    ("hadoop", 0),
    ("datampi", 3),  # scale-up mid-spawn: the stale-hostfile regression
    ("llap", 2),  # rerun-vs-reducer slot deadlock regression
])
def test_chaos_invariants_hold(engine, seed):
    report = run_chaos(engine, seed=seed)
    assert report.queries == len(CHAOS_QUERIES)
    assert report.succeeded == report.queries
    assert report.deadline_misses == 0
    assert report.fault_events
    assert report.makespan > 0
    # the repeated first query produced the same digest both times
    assert report.row_digests[0] == report.row_digests[-1]


def test_chaos_with_deadline_counts_misses():
    report = run_chaos("llap", seed=0, deadline=40.0)
    assert report.deadline_misses > 0
    assert report.succeeded + report.deadline_misses == report.queries


def test_chaos_replay_is_deterministic():
    report = verify_replay("llap", 2)
    assert report.succeeded == report.queries
