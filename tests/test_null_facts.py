"""Facts cannot lie: ``no_nulls`` checked where it is produced.

A ``True`` in ``ColumnBatch.no_nulls`` lets a kernel drop its NULL guard,
so a wrong one is a wrong answer.  Here every producer is checked
against the data it describes — the three stored formats over every scan
range (ORC: several stripes, a NULL only in the last row of the last
one), loaded, ``INSERT OVERWRITE``\\ d and CTAS'd files, empty files,
the llap engine on stripe-cache hits — and every operator's output facts
are checked by an assertion wrapped around every batch a pipeline moves.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.mapper as mapper_module
from repro import HDFS, Metastore, connect, get_metrics
from repro.bench import fresh_hibench, fresh_tpch
from repro.common.rows import ColumnBatch, DataType, Schema
from repro.exec import expressions, vectorized
from repro.exec.column_reduce import reduce_segments
from repro.exec.expressions import Comparison, Const, InputRef
from repro.exec.mapper import ExecMapper
from repro.exec.operators import FileSinkDesc, FilterDesc
from repro.storage.formats.base import get_format
from repro.storage.formats.orc import OrcFormat
from repro.workloads.hibench import HIBENCH_AGGREGATE, HIBENCH_JOIN, hibench_ddl
from repro.workloads.tpch import tpch_query

SCHEMA = Schema.parse("a int, b double, c string, d string, e int, f string")
#: a NULL-free int / double / string, a string whose only NULL is the
#: last row, an int with a NULL inside, an all-NULL column
ROWS = [
    (i, i * 0.5, f"s{i % 3}", None if i == 10 else f"t{i}",
     None if i == 4 else i * 2, None)
    for i in range(11)
]
FORMATS = {
    "text": get_format("text"),
    "sequence": get_format("sequence"),
    "orc-1-stripe": get_format("orc"),
    "orc-4-row-stripes": OrcFormat(stripe_rows=4),
}


def assert_honest(batch: ColumnBatch, where=""):
    """``no_nulls[c]`` implies ``None not in column`` (all positions);
    an absent column (a pruned scan's) has nothing to check."""
    facts = batch.no_nulls
    if facts is None:
        return
    assert len(facts) == batch.width, where
    for position, (known, column) in enumerate(zip(facts, batch.columns)):
        if column is not None:
            assert not known or None not in column, (where, position)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_scan_range_of_a_stored_file(name):
    stored = FORMATS[name].build(SCHEMA, ROWS)
    for start in range(len(ROWS) + 1):
        for count in range(len(ROWS) + 2 - start):
            batch = stored.scan_batch(start, count).batch
            assert batch.to_rows() == ROWS[start:start + count]
            assert_honest(batch, (start, count))
            # and not vacuous: what the writer's own pass saw is reported
            assert list(batch.no_nulls[:3]) == [True, True, True]
    whole = stored.scan_batch(0, len(ROWS)).batch
    assert list(whole.no_nulls) == [True, True, True, False, False, False]
    if name == "orc-4-row-stripes":
        # per stripe: rows 0-3 hold no NULL in d and e, rows 4-7 one in e,
        # rows 8-10 one in d — its very last row
        assert list(stored.scan_batch(0, 4).batch.no_nulls) == \
            [True, True, True, True, True, False]
        assert list(stored.scan_batch(4, 4).batch.no_nulls) == \
            [True, True, True, True, False, False]
        assert list(stored.scan_batch(8, 2).batch.no_nulls) == \
            [True, True, True, False, True, False]
        # pushdown skips the middle stripe: its NULL is not in the batch
        skipping = stored.scan_batch(
            0, 11, stats_conjuncts=[("a", ">=", 8)]
        )
        assert skipping.rows_skipped == 8
        assert list(skipping.batch.no_nulls) == \
            [True, True, True, False, True, False]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_empty_files_and_column_built_files(name):
    empty = FORMATS[name].build(SCHEMA, [])
    batch = empty.scan_batch(0, 10).batch
    assert batch.size == 0
    assert_honest(batch)
    # built from columns (what an engine FileSink hands HDFS.write),
    # typed buffers included: the same facts as from rows
    columns = ColumnBatch.from_rows(ROWS).columns
    stored = FORMATS[name].from_columns(SCHEMA, columns, len(ROWS))
    whole = stored.scan_batch(0, len(ROWS)).batch
    assert_honest(whole)
    assert list(whole.no_nulls) == [True, True, True, False, False, False]


_CELLS = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["x", "y"]))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda width: st.lists(
        st.lists(_CELLS, min_size=width, max_size=width).map(tuple),
        min_size=0, max_size=12,
    )),
    st.integers(1, 5), st.integers(0, 12), st.integers(0, 13),
)
def test_orc_facts_hold_for_any_stripe_layout_and_range(rows, stripe_rows,
                                                        start, count):
    width = len(rows[0]) if rows else 1
    schema = Schema.parse(", ".join(f"c{i} string" for i in range(width)))
    # (ORC string streams want strings or NULLs: render the ints)
    rows = [tuple(None if cell is None else str(cell) for cell in row)
            for row in rows]
    stored = OrcFormat(stripe_rows=stripe_rows).build(schema, rows)
    batch = stored.scan_batch(start, count).batch
    assert batch.to_rows() == rows[start:start + count]
    assert_honest(batch)
    for fmt in ("text", "sequence"):
        assert_honest(get_format(fmt).build(schema, rows)
                      .scan_batch(start, count).batch)


def test_a_batch_built_without_facts_is_all_nullable():
    """``ColumnBatch(columns, n)`` and ``from_rows`` promise nothing, and
    the operators compile the guarded kernels for them."""
    assert ColumnBatch.from_rows(ROWS).no_nulls is None
    counters = get_metrics().counter
    guarded = counters("exec.kernel.guarded_refs")
    free = counters("exec.kernel.free_refs")
    before = (guarded.value, free.value)
    desc = FilterDesc(Comparison(">", InputRef(0, DataType.INT),
                                 Const(3, DataType.INT)))
    for batch in (ColumnBatch.from_rows(ROWS),
                  ColumnBatch(ColumnBatch.from_rows(ROWS).columns, len(ROWS))):
        mapper = ExecMapper([desc, FileSinkDesc()], None, 1, vectorized=True)
        mapper.process_batch(batch)
        assert mapper.close().output.size == 7
    # one guarded variant, compiled once for the descriptor
    assert (guarded.value, free.value) == (before[0] + 1, before[1])


# ---------------------------------------------------------------------------
# every batch an engine moves, end to end
# ---------------------------------------------------------------------------

@pytest.fixture
def honest_batches(monkeypatch):
    """Asserts :func:`assert_honest` on every batch any vector operator
    receives and on every reduce output, while installed; yields the
    number of batches that carried facts."""
    seen = {"with_facts": 0, "batches": 0}

    def checked(method, label):
        def process_batch(self, batch):
            seen["batches"] += 1
            seen["with_facts"] += batch.no_nulls is not None
            assert_honest(batch, label)
            return method(self, batch)
        return process_batch

    for name in dir(vectorized):
        operator = getattr(vectorized, name)
        if (isinstance(operator, type)
                and issubclass(operator, vectorized.VectorOperator)
                and "process_batch" in vars(operator)):
            monkeypatch.setattr(
                operator, "process_batch",
                checked(operator.process_batch, operator.__name__),
            )

    def checked_reduce(desc, segments, directions):
        for run, _positions in segments.parts:
            columns = run.key_columns + run.value_columns
            assert_honest(ColumnBatch(columns, len(run), None, run.no_nulls),
                          "pair run")
        batch = reduce_segments(desc, segments, directions)
        assert_honest(batch, type(desc).__name__)
        return batch

    monkeypatch.setattr(mapper_module, "reduce_segments", checked_reduce)
    return seen


def _null_warehouse(format_name):
    """``t`` holds NULLs in some columns of some files only."""
    hdfs = HDFS(num_workers=3)
    metastore = Metastore(hdfs)
    table = metastore.create_table("t", SCHEMA, format_name=format_name)
    clean = [row for row in ROWS if None not in row[:5]]
    hdfs.write(f"{table.location}/p0", SCHEMA, clean * 3, format_name=format_name)
    hdfs.write(f"{table.location}/p1", SCHEMA, ROWS * 2, format_name=format_name)
    return hdfs, metastore


_QUERIES = [
    "SELECT c, count(*), count(d), sum(e), avg(e), min(d), max(b), sum(a * b)"
    " FROM t GROUP BY c ORDER BY c",
    "SELECT a, e, d FROM t WHERE e > 4 AND (d IS NULL OR d <> 't3') ORDER BY a, e DESC, d",
    "SELECT x.c, y.d, x.e + y.e FROM t x JOIN t y ON x.e = y.a WHERE x.a < 5 ORDER BY 1, 2, 3",
    "SELECT x.a, y.d FROM t x LEFT OUTER JOIN t y ON x.e = y.e ORDER BY 1, 2",
    "SELECT DISTINCT e, f FROM t ORDER BY e",
    # a = 4 is a group whose every e is NULL: SUM / MIN / AVG stay NULL
    "SELECT a, sum(e), min(e), avg(e), count(e) FROM t GROUP BY a ORDER BY a",
    "SELECT CASE WHEN e > 6 THEN e + a ELSE a END, e + a FROM t ORDER BY a, e",
]


@pytest.mark.parametrize("format_name", ["text", "sequence", "orc"])
@pytest.mark.parametrize("engine", ["hadoop", "datampi", "llap"])
def test_engines_keep_their_promises_on_nullable_tables(engine, format_name,
                                                        honest_batches):
    """Loaded, CTAS'd and INSERT OVERWRITE'd files with NULLs in some
    files only: every batch's facts hold and the rows are the oracle's."""
    hdfs, metastore = _null_warehouse(format_name)
    script = (
        f"CREATE TABLE made STORED AS {'ORC' if format_name == 'orc' else 'TEXTFILE'}"
        " AS SELECT a, d, e, b FROM t WHERE a <> 7;"
        "INSERT OVERWRITE TABLE made SELECT a, c, e, b * 2 FROM t WHERE e IS NOT NULL;"
    )
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as oracle:
        expected = [oracle.query(sql).rows for sql in _QUERIES]
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        assert [session.query(sql).rows for sql in _QUERIES] == expected
        session.execute(script)
        rewritten = session.query("SELECT a, d, e, b FROM made ORDER BY a, b").rows
    for data_file in hdfs.list_dir(metastore.get_table("made").location):
        batch = data_file.stored.scan_batch(0, data_file.row_count).batch
        assert_honest(batch, data_file.path)
        assert batch.no_nulls is not None
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as oracle:
        assert oracle.query("SELECT a, d, e, b FROM made ORDER BY a, b").rows \
            == rewritten
    assert honest_batches["with_facts"] > 0


def test_llap_stripe_cache_hits_serve_the_same_facts(honest_batches):
    hdfs, metastore = _null_warehouse("orc")
    counter = get_metrics().counter("llap.cache.hits")
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as oracle:
        expected = [oracle.query(sql).rows for sql in _QUERIES[:2]]
    with connect(engine="llap", hdfs=hdfs, metastore=metastore) as session:
        cold = [session.query(sql).rows for sql in _QUERIES[:2]]
        before = counter.value
        # different texts over the same stripes: result cache misses,
        # stripe cache hits
        warm = [session.query(sql + " LIMIT 1000").rows for sql in _QUERIES[:2]]
        assert counter.value > before
    assert cold == warm == expected


@pytest.mark.parametrize("engine", ["hadoop", "datampi", "llap"])
def test_shipped_workloads_carry_honest_facts(engine, honest_batches,
                                              monkeypatch):
    sources = []
    compile_kernel = expressions._compile_kernel

    def spy(source, env, name):
        sources.append(source)
        return compile_kernel(source, env, name)

    monkeypatch.setattr(expressions, "_compile_kernel", spy)
    hdfs, metastore = fresh_tpch(1, lineitem_sample=400)
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        for number in (1, 3, 6, 10, 13, 16, 18, 21, 22):
            session.execute(tpch_query(number, 1))
    hdfs, metastore = fresh_hibench(0.5, sample_uservisits=400)
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        session.execute(hibench_ddl())
        session.execute(HIBENCH_JOIN)
        session.execute(HIBENCH_AGGREGATE)
    assert honest_batches["with_facts"] > honest_batches["batches"] // 2
    # a literal's NULL-ness is decided when the kernel is generated
    assert len(sources) > 50
    for source in sources:
        assert not re.search(r"\bc\d+ is (not )?None", source), source
