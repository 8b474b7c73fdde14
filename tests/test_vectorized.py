"""Column-kernel execution: engine-vs-oracle equivalence, ColumnBatch
semantics and kernel ownership.

The engines run the column-kernel pipeline (:mod:`repro.exec.vectorized`)
and nothing else; the ``local`` oracle runs the row operators with
closure-compiled expressions.  The two share no evaluation logic and must
be indistinguishable: same rows in the same order, same shuffle pair
sizes.  The first half of this module replays a query corpus (plus a
hypothesis-generated stream) on both and asserts identical results; the
second half unit-tests the selection-vector contract of
:class:`~repro.common.rows.ColumnBatch` (nulls, empty batches,
batch-boundary LIMIT, zero-copy windows), the byte accounting of the
column sink, and the lifetime of compiled kernels and map-join
hash tables.
"""

import gc
import random
import types
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engines.base as engine_base
import repro.exec.vectorized as vectorized_module
from repro import HDFS, Metastore, connect
from repro.bench import fresh_tpch
from repro.common.errors import ExecutionError
from repro.common.kv import KeyValue, kv_size
from repro.common.rows import ColumnBatch, DataType, Schema
from repro.engines.base import compare_result_rows
from repro.exec.expressions import (
    KERNEL_CODE_CACHE,
    Arithmetic,
    Comparison,
    Const,
    InputRef,
    codegen_project_kernel,
    stable_hash,
)
from repro.exec.mapper import ExecMapper, ExecReducer
from repro.exec.operators import (
    FileSinkDesc,
    FilterDesc,
    LimitDesc,
    MapJoinDesc,
    OperatorContext,
    ReduceSinkDesc,
    SelectDesc,
)
from repro.exec.reduce import ReduceJoinDesc, ReduceSortDesc
from repro.exec.vectorized import (
    BroadcastTable,
    VectorLimitOperator,
    build_vector_pipeline,
)
from repro.obs import get_metrics
from repro.workloads.tpch import tpch_query

from .shuffle_reference import RunCollector, pairs_in, segments_of

SCHEMA = Schema.parse("k int, grp string, val double, flag boolean")
DIM_SCHEMA = Schema.parse("grp string, weight int")


def _build_store():
    rng = random.Random(20260806)
    rows = [
        (
            i,
            f"g{rng.randrange(8)}",
            round(rng.uniform(-50, 50), 2) if rng.random() > 0.05 else None,
            rng.random() > 0.5,
        )
        for i in range(400)
    ]
    dims = [(f"g{i}", i * 10) for i in range(6)]  # g6, g7 unmatched
    hdfs = HDFS(num_workers=7)
    metastore = Metastore(hdfs)
    # same data in a row format (scan_batch adapter path) and in ORC
    # (native columnar stripe path) so both producers are exercised
    table = metastore.create_table("f", SCHEMA, format_name="sequence")
    hdfs.write(f"{table.location}/p0", SCHEMA, rows[:200], "sequence", scale=5e4)
    hdfs.write(f"{table.location}/p1", SCHEMA, rows[200:], "sequence", scale=5e4)
    orc = metastore.create_table("fo", SCHEMA, format_name="orc")
    hdfs.write(f"{orc.location}/p0", SCHEMA, rows[:200], "orc", scale=5e4)
    hdfs.write(f"{orc.location}/p1", SCHEMA, rows[200:], "orc", scale=5e4)
    dim = metastore.create_table("d", DIM_SCHEMA)
    hdfs.write(f"{dim.location}/p0", DIM_SCHEMA, dims, scale=10.0)
    return hdfs, metastore


_STORE = _build_store()

# deterministic corpus: one query per vectorized operator/shape, each
# over the row-format table and its ORC twin
_CORPUS = [
    "SELECT k, grp, val FROM {t} WHERE val > 0 ORDER BY k LIMIT 40",
    "SELECT k, val * 2.0, grp FROM {t} WHERE k BETWEEN 50 AND 250 "
    "ORDER BY k DESC LIMIT 25",
    "SELECT grp, count(*), sum(val), min(k), max(val), avg(val), count(val) "
    "FROM {t} GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) FROM {t} WHERE val IS NOT NULL AND flag "
    "GROUP BY grp ORDER BY grp",
    "SELECT weight, count(*), sum(val) FROM {t} JOIN d ON {t}.grp = d.grp "
    "WHERE k % 2 = 0 GROUP BY weight ORDER BY weight",
    "SELECT weight, count(*) FROM {t} LEFT JOIN d ON {t}.grp = d.grp "
    "GROUP BY weight ORDER BY weight",
    "SELECT grp, count(*) FROM {t} WHERE grp LIKE 'g%' AND NOT (grp = 'g0') "
    "GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) FROM {t} "
    "WHERE grp IN (SELECT grp FROM d WHERE weight >= 20) "
    "GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) c FROM ("
    "  SELECT grp FROM {t} WHERE val > 0 UNION ALL SELECT grp FROM d"
    ") u GROUP BY grp ORDER BY grp",
    "SELECT CASE WHEN val > 0 THEN 'pos' ELSE 'neg' END s, count(*) "
    "FROM {t} WHERE val IS NOT NULL "
    "GROUP BY CASE WHEN val > 0 THEN 'pos' ELSE 'neg' END "
    "ORDER BY CASE WHEN val > 0 THEN 'pos' ELSE 'neg' END",
]


def _run(engine, sql):
    hdfs, metastore = _STORE
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        return session.query(sql).rows


@pytest.mark.parametrize("engine", ["hadoop", "datampi"])
@pytest.mark.parametrize("table", ["f", "fo"])
def test_corpus_modes_agree(engine, table):
    for template in _CORPUS:
        sql = template.format(t=table)
        expected = _run("local", sql)
        actual = _run(engine, sql)
        assert compare_result_rows(expected, actual, ordered=True), (
            f"{engine}/{table} disagrees with the oracle on: {sql}\n"
            f"local {expected[:5]}... {engine} {actual[:5]}..."
        )


_columns = st.sampled_from(["k", "grp", "val", "flag"])
_aggs = st.sampled_from(
    ["count(*)", "sum(val)", "avg(val)", "min(k)", "max(val)", "count(val)"]
)
_filters = st.sampled_from([
    "k < 200", "val > 0", "grp IN ('g1', 'g3', 'g5')", "grp LIKE 'g%'",
    "val IS NOT NULL", "flag", "k BETWEEN 100 AND 300",
    "NOT (grp = 'g0')", "val > 0 AND k % 2 = 0",
])


@st.composite
def queries(draw):
    table = draw(st.sampled_from(["f", "fo"]))
    kind = draw(st.sampled_from(["project", "aggregate", "join"]))
    if kind == "join":
        # join scope sees both tables: keep filter columns qualified
        join_filter = draw(st.sampled_from([
            "", "k < 200", "val > 0", f"{table}.grp IN ('g1', 'g3', 'g5')",
            "val IS NOT NULL", "flag", "k BETWEEN 100 AND 300",
        ]))
        where = f" WHERE {join_filter}" if join_filter else ""
        return (
            f"SELECT weight, {draw(_aggs)} AS m "
            f"FROM {table} JOIN d ON {table}.grp = d.grp{where} "
            "GROUP BY weight ORDER BY weight"
        )
    where = f" WHERE {draw(_filters)}" if draw(st.booleans()) else ""
    if kind == "project":
        cols = draw(st.lists(_columns, min_size=1, max_size=3, unique=True))
        limit = draw(st.integers(min_value=1, max_value=40))
        return (
            f"SELECT {', '.join(cols)} FROM {table}{where} "
            f"ORDER BY {', '.join(cols)} DESC, k LIMIT {limit}"
        )
    return (
        f"SELECT grp, {draw(_aggs)} AS m FROM {table}{where} "
        "GROUP BY grp ORDER BY grp"
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(sql=queries())
def test_fuzz_modes_agree(sql):
    expected = _run("local", sql)
    actual = _run("datampi", sql)
    assert compare_result_rows(expected, actual, ordered=True), (
        f"datampi disagrees with the oracle on: {sql}\n"
        f"local {expected[:5]}... datampi {actual[:5]}..."
    )


# ---------------------------------------------------------------------------
# ColumnBatch selection-vector semantics
# ---------------------------------------------------------------------------

def _batch():
    return ColumnBatch.from_rows(
        [(1, "a", None), (2, None, 1.5), (3, "c", -2.0), (4, "d", None)]
    )


def test_nulls_live_in_columns_and_no_nulls_is_a_promise():
    batch = _batch()
    assert batch.columns[2] == [None, 1.5, -2.0, None]
    # NULLs survive selection + materialization untouched
    assert batch.with_selection([1, 3]).to_rows() == [
        (2, None, 1.5), (4, "d", None)
    ]
    # a batch built without facts promises nothing (even a typed buffer)
    assert batch.no_nulls is None
    assert ColumnBatch([[1, 2]], 2).no_nulls is None
    # whoever knows passes them; selections, windows and gathers keep them
    facts = [True, False, False]
    known = ColumnBatch(batch.columns, batch.size, None, facts)
    for derived in (known.with_selection([1, 3]), known.take_first(2),
                    known[1:3], known[1:3].dense(),
                    known.with_selection([3, 0]).dense()):
        assert derived.no_nulls == facts
    # concat: a column is NULL-free only if it is in every piece
    other = ColumnBatch([[5], ["z"], [2.5]], 1, None, [True, True, True])
    assert ColumnBatch.concat([known, other]).no_nulls == facts
    assert ColumnBatch.concat([other, other]).no_nulls == [True, True, True]
    assert ColumnBatch.concat([known, batch]).no_nulls is None
    assert not hasattr(ColumnBatch, "null_mask")


def test_empty_batches():
    empty = ColumnBatch.from_rows([], width=3)
    assert empty.size == 0 and empty.width == 3
    assert empty.live_count == 0
    assert empty.to_rows() == []
    # an emptied selection keeps the columns but exposes no rows
    drained = _batch().with_selection([])
    assert drained.live_count == 0 and drained.to_rows() == []


def test_selection_vector_is_zero_copy():
    batch = _batch()
    narrowed = batch.with_selection([0, 2])
    assert narrowed.columns is batch.columns
    assert narrowed.live_count == 2
    assert narrowed.to_rows() == [(1, "a", None), (3, "c", -2.0)]
    # selection order is preserved, not re-sorted
    assert batch.with_selection([2, 0]).to_rows() == [
        (3, "c", -2.0), (1, "a", None)
    ]


def test_take_first_semantics():
    batch = _batch()
    assert batch.take_first(10) is batch  # no-op beyond live_count
    assert batch.take_first(2).to_rows() == [(1, "a", None), (2, None, 1.5)]
    narrowed = batch.with_selection([1, 2, 3])
    assert narrowed.take_first(2).to_rows() == [(2, None, 1.5), (3, "c", -2.0)]


class _CollectingSink:
    def __init__(self):
        self.rows = []

    def process_batch(self, batch):
        self.rows.extend(batch.to_rows())

    def close(self):
        pass


def test_limit_across_batch_boundaries():
    sink = _CollectingSink()
    limit = VectorLimitOperator(LimitDesc(limit=5), sink)
    limit.process_batch(ColumnBatch.from_rows([(1,), (2,), (3,)]))
    limit.process_batch(ColumnBatch.from_rows([(4,), (5,), (6,)]))
    limit.process_batch(ColumnBatch.from_rows([(7,)]))  # past the limit
    limit.close()
    assert sink.rows == [(1,), (2,), (3,), (4,), (5,)]


def test_window_slices_are_zero_copy():
    batch = _batch()
    window = batch[1:3]
    assert window.columns is batch.columns  # shared, nothing copied
    assert len(window) == 2
    assert window.sel == range(1, 3)
    assert window.to_rows() == [(2, None, 1.5), (3, "c", -2.0)]
    assert batch[0:4] is batch  # full-range slice is the identity


def test_window_slice_contract_violations():
    batch = _batch()
    with pytest.raises(ExecutionError):
        batch[1]  # only slices mirror the row-list protocol
    with pytest.raises(ExecutionError):
        batch[0:4:2]  # windows must be contiguous
    with pytest.raises(ExecutionError):
        batch.with_selection([0, 2])[0:1]  # windows index original columns


def test_build_vector_pipeline_rejects_unknown_plans():
    context = OperatorContext()
    with pytest.raises(ExecutionError, match="empty"):
        build_vector_pipeline([], context)
    with pytest.raises(ExecutionError, match="must end in a sink.*LimitDesc"):
        build_vector_pipeline([LimitDesc(limit=1)], context)
    with pytest.raises(ExecutionError, match="unknown operator.*ReduceSortDesc"):
        build_vector_pipeline([ReduceSortDesc(), FileSinkDesc()], context)


# ---------------------------------------------------------------------------
# column sink: byte accounting must match the kv serde exactly
# ---------------------------------------------------------------------------

def test_sink_kernel_sizes_match_serde():
    # exercise every sizing pass: ascii/non-ascii str, int, float,
    # None, both bools — in keys and values
    rows = [
        (1, "ascii", 1.5, None, True),
        (2, "héllo", -2.0, "x", False),
        (3, "", 0.25, None, True),
    ]
    refs = [InputRef(i) for i in range(5)]
    collector = RunCollector()
    mapper = ExecMapper(
        [ReduceSinkDesc(refs[:2], refs[2:], tag=0)], collector, 4,
        vectorized=True,
    )
    mapper.process_batch(ColumnBatch.from_rows(rows))
    result = mapper.close()
    (partition_ids, run), = collector.batches
    assert len(run) == len(partition_ids) == result.kv_pairs == len(rows)
    assert all(0 <= partition < 4 for partition in partition_ids)
    pairs = pairs_in(run)
    assert [(pair.key, pair.value) for pair in pairs] == \
        [(row[:2], (0,) + row[2:]) for row in rows]
    # the sizes the sink computed per column must equal what the serde
    # computes from scratch for the same pair
    fresh = [kv_size(pair) for pair in pairs]
    assert run.sizes == fresh
    assert partition_ids == [stable_hash(pair.key) % 4 for pair in pairs]
    assert result.kv_bytes == sum(fresh)
    assert mapper.context.kv_size_histogram == Counter(fresh)


# ---------------------------------------------------------------------------
# zero-width batches, empty projections
# ---------------------------------------------------------------------------

def test_zero_width_batch_keeps_its_row_count():
    assert ColumnBatch([], 3).to_rows() == [(), (), ()]
    assert ColumnBatch([], 3, [0, 2]).to_rows() == [(), ()]
    assert ColumnBatch([], 0).to_rows() == []


def test_empty_projection_is_supported():
    kernel = codegen_project_kernel([])
    assert kernel([[1, 2, 3]], range(3)) == []
    rows = [(1,), (2,), (3,)]
    outputs = []
    for vectorized in (False, True):
        mapper = ExecMapper(
            [SelectDesc([]), FileSinkDesc()], None, 1, vectorized=vectorized
        )
        mapper.process_batch(ColumnBatch.from_rows(rows) if vectorized else rows)
        output = mapper.close().output
        outputs.append(output.to_rows() if vectorized else output)
    assert outputs == [[(), (), ()]] * 2


# ---------------------------------------------------------------------------
# reduce tails run the column kernels too
# ---------------------------------------------------------------------------

def _ref(index, dtype=DataType.BIGINT):
    return InputRef(index, dtype)


_TAIL = [
    FilterDesc(Comparison(">", _ref(0), Const(1, DataType.BIGINT))),
    SelectDesc([_ref(2), Arithmetic("*", _ref(0), Const(10, DataType.BIGINT))]),
    LimitDesc(limit=3),
    FileSinkDesc(),
]


@pytest.mark.parametrize("tail", [_TAIL, [FileSinkDesc()]],
                         ids=["operators", "bare-sink"])
def test_reduce_tail_matches_reference(tail):
    groups = [
        ((key,), [(0, key, f"L{key}")] + [(1, f"R{key}{n}") for n in range(key)])
        for key in range(5)
    ]
    pairs = [KeyValue(key, value) for key, values in groups for value in values]
    outputs = []
    for vectorized in (False, True):
        reducer = ExecReducer(
            ReduceJoinDesc(join_type="left", left_width=2, right_width=1),
            tail, vectorized=vectorized,
        )
        result = reducer.run(segments_of(pairs) if vectorized else pairs)
        assert isinstance(result.output, ColumnBatch) == vectorized
        outputs.append(result.output.to_rows() if vectorized else result.output)
    assert outputs[0] == outputs[1] and outputs[0]


# ---------------------------------------------------------------------------
# ownership: kernels live on descriptors, hash tables on the job's
# broadcast tables, nothing in a module-level container
# ---------------------------------------------------------------------------

def test_kernels_are_compiled_once_per_descriptor_and_not_on_the_sink():
    predicate = FilterDesc(Comparison(">", _ref(0), Const(1, DataType.BIGINT)))
    project = SelectDesc([Arithmetic("+", _ref(0), _ref(0))])
    compiled = []
    for _job_run in range(2):
        # load_broadcast_tables appends a throw-away sink per job run
        sink = FileSinkDesc()
        build_vector_pipeline([predicate, project, sink], OperatorContext())
        assert vars(sink) == {"column_names": []}
        compiled.append((vars(predicate)["_kernel"], vars(project)["_kernel"]))
    assert compiled[0][0] is compiled[1][0] and compiled[0][1] is compiled[1][1]
    # the memo is not a dataclass field: equality and repr ignore it
    assert predicate == FilterDesc(predicate.predicate)
    assert "_kernel" not in repr(predicate)


def test_map_join_hash_is_shared_through_the_broadcast_table():
    desc = MapJoinDesc(
        small_location="/small", probe_key_expressions=[_ref(0)],
        build_key_expressions=[_ref(0)], small_width=2,
    )
    table = BroadcastTable(ColumnBatch.from_rows(
        [(1, "one"), (None, "null"), (2, "two"), (2, "deux")]
    ))
    outputs = []
    for _task in range(2):
        mapper = ExecMapper([desc, FileSinkDesc()], None, 1,
                            small_tables={"/small": table}, vectorized=True)
        mapper.process_batch(
            ColumnBatch.from_rows([(2, "L2"), (None, "LN"), (9, "L9")])
        )
        outputs.append(mapper.close().output.to_rows())
    assert outputs[0] == outputs[1] == [
        (2, "L2", 2, "two"), (2, "L2", 2, "deux")
    ]
    # built once, NULL key skipped; a key maps to row indices in table order
    (hash_table,) = table.hash_tables.values()
    assert hash_table == {(1,): [0], (2,): [2, 3]}


def _module_level_containers(module):
    """Mutable module globals: where a process-wide cache would live."""
    return {
        name: len(value) for name, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    }


def test_sessions_leave_no_kernels_or_broadcast_tables_behind(monkeypatch):
    """Plans and job runs own what is compiled and built for them: five
    runs of one cached map-join plan and three fresh sessions leave
    nothing alive once the sessions are closed — with the process-wide
    kernel code cache populated, because it holds code objects only."""
    filters, broadcasts = [], []
    load = engine_base.load_broadcast_tables
    run_plan = engine_base.Engine.run_plan

    def loading(job, hdfs, **kwargs):
        tables = load(job, hdfs, **kwargs)
        broadcasts.extend(weakref.ref(table) for table in tables.values())
        return tables

    def running(self, plan, *args, **kwargs):
        for job in plan.jobs:
            chains = [i.operators for i in job.inputs] + [job.reduce_operators]
            filters.extend(
                weakref.ref(desc) for chain in chains for desc in chain
                if isinstance(desc, FilterDesc)
            )
        return run_plan(self, plan, *args, **kwargs)

    monkeypatch.setattr(engine_base, "load_broadcast_tables", loading)
    monkeypatch.setattr(engine_base.Engine, "run_plan", running)

    hdfs, metastore = fresh_tpch(1, lineitem_sample=300)
    with connect(engine="datampi", hdfs=hdfs, metastore=metastore) as session:
        for _ in range(5):
            session.execute(tpch_query(10, 1))
    for _ in range(3):
        with connect(engine="datampi", hdfs=hdfs,
                     metastore=metastore) as session:
            for number in (3, 5, 10):
                session.execute(tpch_query(number, 1))
    del session
    gc.collect()

    assert filters and broadcasts
    assert len(KERNEL_CODE_CACHE) > 0
    assert [ref() for ref in filters if ref() is not None] == []
    assert _module_level_containers(vectorized_module) == {}
    assert [ref() for ref in broadcasts if ref() is not None] == []


def test_kernel_code_cache_holds_bounded_code_objects_only():
    hdfs, metastore = fresh_tpch(1, lineitem_sample=300)
    with connect(engine="hadoop", hdfs=hdfs, metastore=metastore) as session:
        session.execute(tpch_query(6, 1))
    assert len(KERNEL_CODE_CACHE) > 0
    assert {type(code) for code in KERNEL_CODE_CACHE.values()} == {types.CodeType}
    assert len(KERNEL_CODE_CACHE) <= KERNEL_CODE_CACHE.capacity == 512


def test_fresh_session_recompiles_nothing_it_shares_with_the_last():
    """``compile()`` runs once per distinct source per process: a second
    session over the same query only hits, and the counters say so."""
    def kernel_counters():
        metrics = get_metrics()
        return (metrics.counter("exec.kernel_cache.hits").value,
                metrics.counter("exec.kernel_cache.misses").value)

    hdfs, metastore = fresh_tpch(1, lineitem_sample=300)
    with connect(engine="datampi", hdfs=hdfs, metastore=metastore) as session:
        session.execute(tpch_query(3, 1))
        warm = session.caches()["kernel"]
    hits, misses = kernel_counters()
    with connect(engine="datampi", hdfs=hdfs, metastore=metastore) as session:
        session.execute(tpch_query(3, 1))
        again = session.caches()["kernel"]
    assert again["misses"] == warm["misses"]
    assert again["hits"] > warm["hits"]
    assert kernel_counters() == (
        hits + again["hits"] - warm["hits"], misses
    )
