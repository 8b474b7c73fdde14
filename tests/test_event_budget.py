"""Agenda-entry budget per engine: an events-per-task regression fails
here instead of waiting for someone to read a traced hostbench run.

``data/event_budget.json`` pins, for HiBench JOIN and TPC-H Q3 on each
engine at the ``sim_golden`` sizes, how many agenda entries one run
schedules — ``Simulator.call_at`` + ``call_soon`` calls, counted the way
``hostbench/trace.py`` counts ``simulate.events_scheduled``: by wrapping
the class attributes.  The comparison is exact (the simulation is
deterministic), so a change to an engine's event structure has to
re-capture the file and say so:
``PYTHONPATH=src python tests/test_event_budget.py``.

On datampi the entries are also held against the number of
``MPI_Isend``\\ s, over both workloads together: at most 9 per message
(13.1 here and 12.2 on ``tpch22_three_engines`` before the send's
completion became one callback; 8.1 and 7.9 after).
"""

import contextlib
import json
import os
from unittest import mock

import pytest

from repro import connect
from repro.bench import fresh_hibench, fresh_tpch
from repro.engines.datampi.mpi import SimulatedMPI
from repro.simulate.events import Simulator
from repro.workloads.hibench import HIBENCH_JOIN, hibench_ddl
from repro.workloads.tpch import tpch_query

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


@pytest.fixture(autouse=True)
def wrappers_removed():
    originals = [vars(owner)[name] for owner, name, _field in _SEAMS]
    yield
    assert originals == [vars(owner)[name] for owner, name, _field in _SEAMS]


@pytest.fixture(scope="module")
def budget():
    with open(BUDGET_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", ENGINES)
def test_agenda_entries_match_budget(budget, engine, workload):
    assert measure(engine, workload)["entries"] == budget[engine][workload]


def test_datampi_entries_per_message():
    runs = [measure("datampi", workload) for workload in WORKLOADS]
    messages = sum(counts["messages"] for counts in runs)
    assert messages > 0
    assert (
        sum(counts["entries"] for counts in runs) / messages
        <= MAX_ENTRIES_PER_MESSAGE
    )


if __name__ == "__main__":
    with open(BUDGET_PATH, "w") as handle:
        json.dump(
            {
                engine: {
                    workload: measure(engine, workload)["entries"]
                    for workload in WORKLOADS
                }
                for engine in ENGINES
            },
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
