"""Agenda-entry budget per engine: an events-per-task regression fails
here instead of waiting for someone to read a traced hostbench run.

``data/event_budget.json`` pins, for HiBench JOIN and TPC-H Q3 on each
engine at the ``sim_golden`` sizes, how many agenda entries one run
schedules — ``Simulator.call_at`` + ``call_soon`` calls, counted the way
``hostbench/trace.py`` counts ``simulate.events_scheduled``: by wrapping
the class attributes.  The comparison is exact (the simulation is
deterministic), so a change to an engine's event structure has to
re-capture the file and say so:
``PYTHONPATH=src python -m tests.test_event_budget``.

Each solo cell rose by exactly 2 after ``74b355d`` (e.g. datampi TPC-H
Q3 2,771 → 2,773), the one time the budget went up: ``execute`` now
runs a statement's one lifecycle, which charges the modeled compile as
a timeout on the simulated clock — one ``call_at`` and the wakeup it
triggers per engine-bound statement — where the solo path used to add
the compile seconds after the run.  The ``serving`` cell, already
charged that way, did not move.

On datampi the entries are also held against the number of
``MPI_Isend``\\ s, over both workloads together: at most 9 per message
(13.1 here and 12.2 on ``tpch22_three_engines`` before the send's
completion became one callback; 8.1 and 7.9 after).

The ``llap`` ``serving`` cell is the scheduler's share: a 48-query cold
burst through ``Session.submit`` under the ``fair`` policy, then 500
result-cache hits (15 % with a deadline) sent by a dispatcher process.
A hit costs the *dispatcher* two entries (its timeout and its wakeup)
and the scheduler none: 7,895 entries at ``44e232d``, where every hit
was a process behind a start event (and a second process, a timer and
a race for the ones with a deadline), 6,622 since instant work is
answered at admission (0.839x; 1,000 of them are the dispatcher's,
the rest the burst's).
"""

import contextlib
import os
from unittest import mock

import pytest

from repro import connect
from repro.bench import fresh_hibench, fresh_tpch
from repro.common.config import (
    HEARTBEAT_ENABLED,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.engines.datampi.mpi import SimulatedMPI
from repro.simulate.events import Simulator
from repro.workloads.hibench import HIBENCH_JOIN, hibench_ddl
from repro.workloads.tpch import tpch_query

from .goldens import load_golden, write_golden

BUDGET_PATH = os.path.join(os.path.dirname(__file__), "data", "event_budget.json")

ENGINES = ("hadoop", "datampi", "llap")
WORKLOADS = ("hibench_join", "tpch_q3")
MAX_ENTRIES_PER_MESSAGE = 9


_SEAMS = (
    (Simulator, "call_at", "entries"),
    (Simulator, "call_soon", "entries"),
    (SimulatedMPI, "isend", "messages"),
)


@contextlib.contextmanager
def counting():
    """``{"entries": n, "messages": n}``, counted while the block runs by
    wrappers around the class attributes (removed on exit)."""
    counts = {"entries": 0, "messages": 0}

    def counted(function, field):
        def wrapper(*args, **kwargs):
            counts[field] += 1
            return function(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        for owner, name, field in _SEAMS:
            stack.enter_context(mock.patch.object(
                owner, name, counted(vars(owner)[name], field)
            ))
        yield counts


def measure(engine, workload):
    """Counts for *workload* on *engine* over a fresh warehouse; only
    the measured script runs with the wrappers installed."""
    if workload == "tpch_q3":
        hdfs, metastore = fresh_tpch(1, lineitem_sample=3000)
        setup, script = None, tpch_query(3, 1)
    else:
        hdfs, metastore = fresh_hibench(0.5, sample_uservisits=3000)
        setup, script = hibench_ddl(), HIBENCH_JOIN
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        if setup is not None:
            session.execute(setup)
        with counting() as counts:
            session.execute(script)
    return counts


SERVING_QUERIES = (
    "SELECT sourceip, SUM(adrevenue) FROM uservisits GROUP BY sourceip",
    "SELECT countrycode, count(*) FROM uservisits GROUP BY countrycode",
    "SELECT count(*) FROM uservisits WHERE visitdate >= '1999-07-01'",
    "SELECT avg(pagerank) FROM rankings WHERE pagerank > 500",
)
SERVING_POOLS = {"bi": 24, "etl": 8, "adhoc": 16}
SERVING_HITS = 500


@contextlib.contextmanager
def serving_session():
    """An llap session whose 48-query cold burst has drained, so every
    query of ``SERVING_QUERIES`` is a result-cache hit from here on."""
    hdfs, metastore = fresh_hibench(0.5, sample_uservisits=3000)
    conf = {
        HEARTBEAT_ENABLED: False,
        SCHED_POLICY: "fair",
        SCHED_POOLS: "; ".join(
            f"{pool}:cap={cap},queue=1024"
            for pool, cap in SERVING_POOLS.items()),
        SCHED_MAX_CONCURRENT: sum(SERVING_POOLS.values()),
    }
    with connect(engine="llap", hdfs=hdfs, metastore=metastore,
                 conf=conf) as session:
        burst = [pool for pool, cap in SERVING_POOLS.items()
                 for _ in range(cap)]
        for index, pool in enumerate(burst):
            session.submit(SERVING_QUERIES[index % len(SERVING_QUERIES)],
                           pool=pool)
        session.scheduler.drain()
        yield session


def measure_serving():
    """Entries for the burst plus ``SERVING_HITS`` dispatched hits."""
    with counting() as counts:
        with serving_session() as session:
            sim = session.scheduler.runtime.sim
            pools = list(SERVING_POOLS)

            def dispatcher():
                for index in range(SERVING_HITS):
                    yield sim.timeout(0.125)
                    session.submit(
                        SERVING_QUERIES[index % len(SERVING_QUERIES)],
                        pool=pools[index % len(pools)],
                        # 15 % of arrivals carry a deadline
                        deadline=3600.0 if index % 20 < 3 else None,
                    )

            sim.spawn(dispatcher(), "budget-dispatcher")
            session.scheduler.drain()
            summary = session.scheduler.summary()
            assert summary["succeeded"] == summary["queries"] == (
                sum(SERVING_POOLS.values()) + SERVING_HITS)
            assert session.caches()["result"]["hits"] == SERVING_HITS
    return counts


@pytest.fixture(autouse=True)
def wrappers_removed():
    originals = [vars(owner)[name] for owner, name, _field in _SEAMS]
    yield
    assert originals == [vars(owner)[name] for owner, name, _field in _SEAMS]


@pytest.fixture(scope="module")
def budget():
    return load_golden(BUDGET_PATH)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", ENGINES)
def test_agenda_entries_match_budget(budget, engine, workload):
    assert measure(engine, workload)["entries"] == budget[engine][workload]


def test_serving_entries_match_budget(budget):
    assert measure_serving()["entries"] == budget["llap"]["serving"]


@pytest.mark.parametrize("deadline", (None, 3600.0))
def test_a_hit_schedules_no_agenda_entry(deadline):
    """An arrival the result cache answers is finished inside ``submit``:
    no process, no start event, no deadline timer."""
    with serving_session() as session:
        with counting() as counts:
            handles = [session.submit(sql, deadline=deadline)
                       for sql in SERVING_QUERIES]
        assert all(handle.results[-1].cache_hit for handle in handles)
        assert counts["entries"] == 0


def test_datampi_entries_per_message():
    runs = [measure("datampi", workload) for workload in WORKLOADS]
    messages = sum(counts["messages"] for counts in runs)
    assert messages > 0
    assert (
        sum(counts["entries"] for counts in runs) / messages
        <= MAX_ENTRIES_PER_MESSAGE
    )


if __name__ == "__main__":
    captured = {
        engine: {
            workload: measure(engine, workload)["entries"]
            for workload in WORKLOADS
        }
        for engine in ENGINES
    }
    captured["llap"]["serving"] = measure_serving()["entries"]
    write_golden(BUDGET_PATH, captured)
