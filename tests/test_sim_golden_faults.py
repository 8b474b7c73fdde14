"""Absolute golden for the fault paths and the shared-runtime path.

``data/sim_golden.json`` is fault-free; this file pins what the task
attempt / retry / lost-map / speculation / gang-restart paths do on
``build_big_warehouse``: per engine and fault plan,
``[repr(total seconds), attempts, restarts, failed attempts, row
digest]``, and per engine one scheduler run of three concurrent queries
under injected task failures (``repr`` of the makespan and of each
latency).  ``datampi/drain-crash`` (captured at ``7e980c7``) crashes a
node 60.4 s into the plan with the heartbeat monitor off: every O task
of the first submission has finished (60.35 s) but deliveries are still
on the wire (until 60.46 s), so the gang must abort at the crash
instant, not when the last delivery lands.  Fault times are on the
cluster's clock, which starts with the statement, and the plan starts
after the 0.9 s modeled compile, so the crash is at 61.3 s.  The
comparison is exact.  Re-capture (only after a deliberate cost-model
or lifecycle change) with
``PYTHONPATH=src python -m tests.test_sim_golden_faults``.
"""

import hashlib
import os

import pytest

from repro import connect
from repro.common.config import (
    FAULT_SPEC,
    HEARTBEAT_ENABLED,
    RETRY_BACKOFF,
    RETRY_MAX,
    SPECULATIVE_EXECUTION,
)
from .conftest import build_big_warehouse
from .goldens import load_golden, write_golden

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "sim_golden_faults.json"
)

SQL = "SELECT grp, sum(val) FROM facts GROUP BY grp ORDER BY grp"
ENGINES = ("hadoop", "datampi", "llap")
_RETRY = {RETRY_MAX: "10", RETRY_BACKOFF: "0.5"}
FAULTS = {
    "fail": dict(_RETRY, **{FAULT_SPEC: "seed:7; fail:0.3"}),
    "crash": dict(_RETRY, **{FAULT_SPEC: "crash:w1@6-60"}),
    "slow": {FAULT_SPEC: "slow:w0x8@0", SPECULATIVE_EXECUTION: "true"},
}
DRAIN_CRASH = dict(
    _RETRY, **{FAULT_SPEC: "crash:w1@61.3-200", HEARTBEAT_ENABLED: "false"}
)
SHARED_CONF = {FAULT_SPEC: "seed:3; fail:0.2"}
SHARED_QUERIES = 3


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def measure_solo(engine, conf):
    hdfs, metastore = build_big_warehouse()
    with connect(engine=engine, hdfs=hdfs, metastore=metastore,
                 conf=conf) as session:
        result = session.query(SQL)
    return [
        repr(result.execution.total_seconds),
        result.attempts,
        result.restarts,
        sum(job.failed_attempts for job in result.execution.jobs),
        _digest(result.rows),
    ]


def measure_shared(engine):
    hdfs, metastore = build_big_warehouse()
    with connect(engine=engine, hdfs=hdfs, metastore=metastore,
                 conf=SHARED_CONF) as session:
        handles = [session.submit(SQL) for _ in range(SHARED_QUERIES)]
        session.scheduler.drain()
        return [repr(session.scheduler.summary()["makespan"])] + [
            repr(handle.latency) for handle in handles
        ]


def measure_all():
    out = {
        f"{engine}/{fault}": measure_solo(engine, FAULTS[fault])
        for engine in ENGINES for fault in FAULTS
    }
    out["datampi/drain-crash"] = measure_solo("datampi", DRAIN_CRASH)
    for engine in ENGINES:
        out[f"{engine}/shared"] = measure_shared(engine)
    return out


@pytest.fixture(scope="module")
def golden():
    return load_golden(GOLDEN_PATH)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_path_matches_golden(golden, engine, fault):
    assert measure_solo(engine, FAULTS[fault]) == golden[f"{engine}/{fault}"]


def test_crash_inside_datampi_drain_window_matches_golden(golden):
    assert measure_solo("datampi", DRAIN_CRASH) == golden["datampi/drain-crash"]


@pytest.mark.parametrize("engine", ENGINES)
def test_shared_runtime_matches_golden(golden, engine):
    assert measure_shared(engine) == golden[f"{engine}/shared"]


if __name__ == "__main__":
    write_golden(GOLDEN_PATH, measure_all())
