"""Task bodies give back what they hold, and a failed query leaves no
intermediate files behind.

Every attempt body (hadoop and llap map/reduce attempts, DataMPI O and A
ranks) takes a slot, and hadoop's also a JVM heap, and must return both
on every exit path: success, injected failure, crash interrupt and a
query deadline.  The only footprint allowed to outlive a query is llap's
resident daemons, which hold ``slots_per_node`` slots and their heaps on
every node they serve by design.
"""

import importlib

import pytest

from repro import connect
from repro.common.config import FAULT_SPEC, QUERY_DEADLINE
from repro.common.errors import QueryTimeoutError

ENGINES = ("hadoop", "datampi", "llap")
SQL = "SELECT grp, sum(val) FROM facts GROUP BY grp ORDER BY grp"
# scenario -> (session conf, deadline in simulated seconds)
SCENARIOS = {
    "clean": ({}, None),
    "injected-failures": ({FAULT_SPEC: "seed:3; fail:0.3"}, None),
    "node-crash": ({FAULT_SPEC: "crash:w2@40-80"}, None),
    "deadline": ({}, 60.0),  # mid-way through the first job everywhere
}
AUX_POOLS = ("hadoop.reduce", "datampi.a", "llap.exec")


def _holdings(runtime):
    """Per worker: (slots in use, memory used, aux-pool slots in use)."""
    aux = runtime._aux_slots
    return [
        (node.slots.in_use, node.memory.used,
         tuple(aux[key][index].in_use if key in aux else 0
               for key in AUX_POOLS))
        for index, node in enumerate(runtime.cluster.workers)
    ]


def _daemon_footprint(runtime, holdings):
    """*holdings* plus what llap's serving daemons keep by design."""
    fleet = runtime._engine_state.get("llap.fleet")
    if fleet is None:
        return holdings
    heap = runtime.model.cluster.heap_per_task
    out = []
    for (slots, memory, aux), daemon in zip(holdings, fleet.daemons):
        if daemon.up:
            slots += fleet.daemon_slots
            memory += heap * fleet.daemon_slots
        out.append((slots, memory, aux))
    return out


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("engine", ENGINES)
def test_every_attempt_gives_back_what_it_holds(engine, scenario,
                                                big_warehouse):
    conf, deadline = SCENARIOS[scenario]
    hdfs, metastore = big_warehouse
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore,
                      conf=conf)
    runtime = session.scheduler.runtime
    before = _holdings(runtime)
    handle = session.submit(SQL, deadline=deadline)
    session.scheduler.drain()
    assert handle.finished_at is not None
    if scenario == "deadline":
        with pytest.raises(QueryTimeoutError):
            handle.result()
    assert _holdings(runtime) == _daemon_footprint(runtime, before)
    assert runtime.leases.pending_count == 0


def _first_job_end(engine, build_warehouse):
    hdfs, metastore = build_warehouse()
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
    jobs = session.submit(SQL).result().execution.jobs
    assert len(jobs) == 2  # GROUP BY into /tmp/hive, then ORDER BY
    return jobs[0].finished


@pytest.mark.parametrize("path", ("submit", "execute"))
@pytest.mark.parametrize("engine", ENGINES)
def test_deadline_after_first_job_leaves_no_intermediates(
        engine, path, big_warehouse_factory):
    deadline = _first_job_end(engine, big_warehouse_factory) + 1.5
    hdfs, metastore = big_warehouse_factory()
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
    if path == "submit":
        handle = session.submit(SQL, deadline=deadline)
        with pytest.raises(QueryTimeoutError):
            handle.result()
        session.scheduler.drain()
    else:  # solo statements are bounded by repro.query.deadline too
        session.conf.set(QUERY_DEADLINE, deadline)
        with pytest.raises(QueryTimeoutError):
            session.query(SQL)
    assert hdfs.list_dir("/tmp/hive") == []


@pytest.mark.parametrize("engine", ENGINES)
def test_solo_failure_in_a_later_job_leaves_no_intermediates(
        engine, monkeypatch, big_warehouse):
    module = importlib.import_module(f"repro.engines.{engine}.engine")
    reduce = module.run_reducer_functionally

    def failing(job, *args, **kwargs):
        if job.is_final:
            raise RuntimeError("reducer died")
        return reduce(job, *args, **kwargs)

    monkeypatch.setattr(module, "run_reducer_functionally", failing)
    hdfs, metastore = big_warehouse
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
    with pytest.raises(RuntimeError, match="reducer died"):
        session.query(SQL)
    assert hdfs.list_dir("/tmp/hive") == []
