"""Census: the column kernels cover every operator list the planner emits.

Production engines run :func:`build_vector_pipeline` with no fallback, so
it must accept every map-input chain, every broadcast (map-join build)
chain and every reduce tail of every plan the shipped workloads compile:
TPC-H 1-22, HiBench AGGREGATE/JOIN, the serving catalog and the
``test_vectorized`` corpus.  The check is written against plan
descriptors — the scripts run on the local oracle only so that later
statements see the tables earlier ones created.
"""

import pytest

from repro import connect, get_metrics
from repro.bench import fresh_hibench, fresh_tpch
from repro.common.rows import ColumnBatch
from repro.engines.local import LocalEngine
from repro.exec.operators import FileSinkDesc, ListCollector, OperatorContext
from repro.exec.vectorized import BroadcastTable, build_vector_pipeline
from repro.workloads.hibench import hibench_ddl
from repro.workloads.tpch import TPCH_SCHEMAS, tpch_query

from .conftest import shipped_scripts
from .test_vectorized import _CORPUS, _STORE

SCRIPTS = {
    name: text for name, text in shipped_scripts().items()
    if name != "hibench-ddl"
}
SCRIPTS.update(
    (f"corpus-{index}-{table}", template.format(t=table))
    for index, template in enumerate(_CORPUS) for table in ("f", "fo")
)


def operator_lists(plan):
    """``(label, descriptors, job)`` for every pipeline a plan makes the
    engines build."""
    for job in plan.jobs:
        for map_input in job.inputs:
            yield f"{job.job_id} map {map_input.location}", map_input.operators, job
        for spec in job.broadcasts:
            chain = list(spec.operators) + [FileSinkDesc()]
            yield f"{job.job_id} broadcast {spec.location}", chain, job
        if not job.is_map_only:
            yield f"{job.job_id} reduce tail", job.reduce_operators, job


@pytest.fixture(scope="module")
def sessions():
    stores = {
        "tpch": fresh_tpch(1, lineitem_sample=800),
        "hibench": fresh_hibench(0.5, sample_uservisits=300),
        "corpus": _STORE,
    }
    opened = {
        name: connect(engine="local", hdfs=hdfs, metastore=metastore)
        for name, (hdfs, metastore) in stores.items()
    }
    opened["hibench"].execute(hibench_ddl())
    opened["serving"] = opened["hibench"]  # the catalog reads hivebench tables
    return opened


@pytest.fixture()
def compiled_plans(monkeypatch):
    """Every plan handed to the local engine while the test runs."""
    plans = []
    run_plan = LocalEngine.run_plan

    def spy(self, plan, *args, **kwargs):
        plans.append(plan)
        return run_plan(self, plan, *args, **kwargs)

    monkeypatch.setattr(LocalEngine, "run_plan", spy)
    return plans


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_every_compiled_pipeline_vectorizes(sessions, compiled_plans, name):
    sessions[name.split("-")[0]].execute(SCRIPTS[name])
    assert compiled_plans, f"{name} compiled no plan"
    checked = 0
    for plan in compiled_plans:
        for label, descriptors, job in operator_lists(plan):
            context = OperatorContext(
                collector=ListCollector(),
                small_tables={spec.location: BroadcastTable(ColumnBatch([], 0))
                              for spec in job.broadcasts},
            )
            assert build_vector_pipeline(descriptors, context) is not None, (
                f"{name}: {label} has no vector pipeline: {descriptors}"
            )
            checked += 1
    assert checked >= len(compiled_plans)


# ---------------------------------------------------------------------------
# which kernel ran: NULL guards as a count, not as a slow benchmark
# ---------------------------------------------------------------------------

_KERNEL_COUNTERS = ("exec.kernel.guarded_refs", "exec.kernel.free_refs",
                    "exec.kernel.variants")


def _kernel_counts():
    return [get_metrics().counter(name).value for name in _KERNEL_COUNTERS]


def _compiled_while(session, sql):
    """``(guarded refs, free refs, variants)`` compiled running *sql*."""
    before = _kernel_counts()
    session.execute(sql)
    return tuple(int(now - then) for now, then in zip(_kernel_counts(), before))


@pytest.mark.parametrize("format_name", ["text", "orc"])
def test_q1_and_q6_compile_without_a_null_guard(format_name):
    """A loaded ``lineitem`` holds no NULL and its files say so, so every
    kernel of Q1 and Q6 — the group kernel with the filter inside it,
    and the reduce — is the unguarded variant.  An operator that drops
    the facts on the way shows up here as guarded references.  Q6's
    filter and group share ``l_discount``: one reference, not two."""
    hdfs, metastore = fresh_tpch(1, lineitem_sample=400, format_name=format_name)
    with connect(engine="hadoop", hdfs=hdfs, metastore=metastore) as session:
        assert _compiled_while(session, tpch_query(1, 1)) == (0, 18, 2)
        assert _compiled_while(session, tpch_query(6, 1)) == (0, 5, 2)
        # the plan is cached and so are its kernels: nothing compiles twice
        assert _compiled_while(session, tpch_query(6, 1)) == (0, 0, 0)


def test_q1_counts_its_rows_once(monkeypatch):
    """Q1 keeps eleven slots a group — four sums, three ``AVG`` pairs,
    ``COUNT(*)`` — and four of them count the group's rows, while
    ``AVG(l_quantity)`` and ``AVG(l_extendedprice)`` sum what
    ``SUM(l_quantity)`` and ``SUM(l_extendedprice)`` do over all-float
    columns.  Over a NULL-free ``lineitem`` the group kernel updates one
    count and the two sums (6 slot updates a row, not 11) and the flush
    fills in the other five; Q6's single ``SUM`` has nothing to share."""
    from repro.exec import expressions

    sources = []
    compile_kernel = expressions._compile_kernel

    def spy(source, env, name):
        sources.append(source)
        return compile_kernel(source, env, name)

    monkeypatch.setattr(expressions, "_compile_kernel", spy)
    shared = get_metrics().counter("exec.kernel.shared_slots")

    def group_kernel_of(session, number):
        del sources[:]
        before = shared.value
        session.execute(tpch_query(number, 1))
        (source,) = [text for text in sources if "_group_batch" in text]
        updates = [line for line in source.splitlines()
                   if line.lstrip().startswith("acc[")]
        return len(updates), int(shared.value - before)

    hdfs, metastore = fresh_tpch(1, lineitem_sample=400, format_name="orc")
    with connect(engine="hadoop", hdfs=hdfs, metastore=metastore) as session:
        assert group_kernel_of(session, 1) == (6, 5)
        assert group_kernel_of(session, 6) == (1, 0)


@pytest.mark.parametrize("format_name", ["text", "orc"])
def test_one_null_compiles_the_guarded_form(format_name):
    schema = TPCH_SCHEMAS["lineitem"]
    hdfs, metastore = fresh_tpch(1, lineitem_sample=400, format_name=format_name)
    location = metastore.get_table("lineitem").location
    data_file = hdfs.list_dir(location)[-1]
    rows = list(data_file.rows)
    discount = schema.index_of("l_discount")
    rows[-1] = rows[-1][:discount] + (None,) + rows[-1][discount + 1:]
    hdfs.delete(data_file.path)
    hdfs.write(data_file.path, schema, rows, scale=data_file.scale,
               format_name=format_name)
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as oracle:
        expected = oracle.query(tpch_query(6, 1)).rows
    with connect(engine="hadoop", hdfs=hdfs, metastore=metastore) as session:
        # the last file's tasks compile a second group kernel (the
        # filter inside it), guarding l_discount; its SUM slot may be
        # NULL, so the reduce kernel guards its one column too
        assert _compiled_while(session, tpch_query(6, 1)) == (2, 7, 3)
        assert session.query(tpch_query(6, 1)).rows == expected
