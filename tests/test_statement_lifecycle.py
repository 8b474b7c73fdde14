"""One statement lifecycle: a solo statement is a scheduler of one.

``Session.execute`` runs each engine-bound statement on a cluster of its
own and ``Session.submit`` on the session's shared one, but both run the
same statement generator (``Driver.statement_process``): compile charged
on the simulated clock, the plan, a fallback on the same cluster and
clock, the deadline race, intermediates deleted, the trace.  So a query
submitted alone on a fresh session must be *exactly* the query executed
on a fresh warehouse — rows, ``repr`` of the simulated seconds,
attempts, restarts, fault events, fallback engine and the shape of the
span tree (names, categories, ``repr`` of start and end) and the files
it leaves under ``/tmp``; a failed query fails the same way.

One difference is not the lifecycle's: past a deadline, the submitted
query's already-running tasks go on in the shared simulation and commit
part-files into its deleted intermediate directory (abandoned tasks are
not stopped yet), while ``execute`` abandons its own cluster at the
deadline instant.  So the deadline cell compares the failure and checks
that ``execute`` leaves nothing behind.

The cells are the three cluster engines × a clean run, random task
failures, rolling crashes that exhaust DataMPI's gang restarts and
degrade to MapReduce (337.06 s solo vs 263.45 s submitted while the two
lifecycles were separate copies), and a ``repro.query.deadline`` at half
the clean run; plus the ``local`` oracle's clean run, which a scheduler
runs like any engine.
"""

import pytest

from repro import connect
from repro.common.config import (
    FAULT_SPEC,
    QUERY_DEADLINE,
    RETRY_BACKOFF,
    RETRY_MAX,
)
from repro.common.errors import QueryTimeoutError
from repro.engines.base import EngineRuntime

from .conftest import build_big_warehouse

SQL = "SELECT grp, sum(val) FROM facts GROUP BY grp ORDER BY grp"
ENGINES = ("hadoop", "datampi", "llap")
ROLLING_CRASHES = {
    FAULT_SPEC: "crash:w1@5-7; crash:w2@12-14; crash:w3@18-20; crash:w4@24-26",
    RETRY_MAX: "1", RETRY_BACKOFF: "0.5",
}
CELLS = {
    "clean": {},
    "failures": {FAULT_SPEC: "seed:3; fail:0.3"},
    "rolling-crashes": ROLLING_CRASHES,
}


def _shape(span):
    return (span.name, span.category, repr(span.start), repr(span.end),
            [_shape(child) for child in span.children])


def _observe(run, conf):
    """What one run shows: the result's exact numbers and trace shape,
    or the failure's type (and deadline); then the files it left."""
    hdfs, metastore = build_big_warehouse()
    session = connect(engine=run[0], hdfs=hdfs, metastore=metastore,
                      conf=conf)
    try:
        if run[1] == "submit":
            result = session.submit(SQL).result()
        else:
            result = session.query(SQL)
    except Exception as exc:  # compared, not swallowed
        seen = [type(exc).__name__, getattr(exc, "deadline", None)]
    else:
        seen = [result.rows, repr(result.simulated_seconds), result.attempts,
                result.restarts, [repr(event) for event in result.fault_events],
                result.fallback_engine, _shape(result.trace)]
    finally:
        session.close()
    return seen, sorted(data.path for data in hdfs.list_dir("/tmp"))


@pytest.fixture(scope="module")
def clean_seconds():
    """Simulated seconds of each engine's clean run (solo)."""
    seconds = {}
    for engine in ENGINES:
        hdfs, metastore = build_big_warehouse()
        with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
            seconds[engine] = session.query(SQL).simulated_seconds
    return seconds


@pytest.mark.parametrize("engine,cell", [
    (engine, cell) for engine in ENGINES
    for cell in sorted(CELLS) + ["deadline"]
] + [("local", "clean")])
def test_execute_is_a_scheduler_of_one(engine, cell, clean_seconds):
    if cell == "deadline":
        conf = {QUERY_DEADLINE: clean_seconds[engine] / 2}
    else:
        conf = CELLS[cell]
    solo, solo_files = _observe((engine, "execute"), conf)
    submitted, submitted_files = _observe((engine, "submit"), conf)
    assert solo == submitted
    if cell == "deadline":
        assert solo == [QueryTimeoutError.__name__, conf[QUERY_DEADLINE]]
        assert solo_files == []
    else:
        assert solo_files == submitted_files


def test_rolling_crash_fallback_continues_on_the_same_clock():
    """The degraded run continues on the cluster and clock DataMPI
    failed on — the crashes are not replayed from t = 0 for it."""
    solo, _files = _observe(("datampi", "execute"), ROLLING_CRASHES)
    assert solo[5] == "hadoop"
    assert solo[1] == "263.45363614113677"


def test_instant_statements_build_no_runtime(monkeypatch):
    """Only an engine-bound statement gets a cluster: host statements
    and result-cache hits are answered without building a runtime."""
    built = []
    init = EngineRuntime.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EngineRuntime, "__init__", counting)
    hdfs, metastore = build_big_warehouse()
    with connect(engine="llap", hdfs=hdfs, metastore=metastore) as session:
        session.execute(SQL)
        assert len(built) == 1
        results = session.execute(f"SET {RETRY_MAX}=3; EXPLAIN {SQL}; {SQL}")
        assert results[-1].cache_hit
        assert len(built) == 1
