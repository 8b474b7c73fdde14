"""A scan materializes the columns its map chain reads, and only those.

``StoredFile.scan_batch(..., columns=P)`` leaves every column *P* does
not name out of its batch (``None`` — an absent column, see
``ColumnBatch``).  Three things keep that sound:

(a) per stored file, a projected scan is the full-width scan at the
    positions in *P* — values, typed buffers, ``no_nulls`` — charges the
    bytes and skips the stripes the oracle's full-width ``scan`` does, and
    holds ``None`` everywhere else (hypothesis, every format);
(b) per plan, ``ScanHints.columns`` covers everything the chain reads:
    every shipped query on every engine over every format returns the
    ``local`` oracle's rows (the oracle's scan is full-width) — an
    absent column is its own poison, any read of ``None`` raises — and
    ``storage.scan.columns_materialized`` counts exactly what the hints
    name;
(c) two mutants show the census bites: a scan that drops a named
    column, a hint that forgets a filter column.

``scripts/check.sh`` re-runs the module under ``PYTHONHASHSEED=1``.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect, get_metrics
from repro.bench import fresh_hibench, fresh_tpch
from repro.common.errors import ExecutionError, StorageError
from repro.common.rows import ColumnBatch, Schema, concat_columns, take_columns
from repro.engines.base import Engine, compare_result_rows
from repro.plan.physical import PhysicalCompiler
from repro.storage.formats.base import RowMajorStoredFile, StoredFile, get_format
from repro.storage.formats.orc import OrcFormat, OrcStoredFile
from repro.workloads.hibench import hibench_ddl
from repro.workloads.tpch import tpch_query

from .conftest import shipped_scripts

# ---------------------------------------------------------------------------
# (a) one stored file: projected scan == full scan at the named positions
# ---------------------------------------------------------------------------

_TYPES = {
    "int": st.integers(-5, 5),
    "bigint": st.integers(-2 ** 40, 2 ** 40),
    "double": st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e9]),
    "string": st.sampled_from(["", "a", "ab", "zebra"]),
    "date": st.sampled_from(["1994-01-01", "1995-06-17", "1998-12-01"]),
    "boolean": st.booleans(),
}


@st.composite
def _files(draw):
    """``(schema, rows)``: 1-6 typed columns, each with or without NULLs,
    0-40 rows."""
    width = draw(st.integers(1, 6))
    kinds = [draw(st.sampled_from(sorted(_TYPES))) for _ in range(width)]
    schema = Schema.parse(
        ", ".join(f"c{index} {kind}" for index, kind in enumerate(kinds))
    )
    size = draw(st.integers(0, 40))
    columns = []
    for kind in kinds:
        values = _TYPES[kind]
        if draw(st.booleans()):
            values = st.one_of(st.none(), values)
        columns.append(draw(st.lists(values, min_size=size, max_size=size)))
    return schema, list(zip(*columns)) if size else []


def _formats(stripe_rows):
    return [get_format("text"), get_format("sequence"), OrcFormat(stripe_rows)]


def _same_column(got, want):
    assert type(got) is type(want)
    if isinstance(want, array):
        assert got.typecode == want.typecode
    assert repr(list(got)) == repr(list(want))


@settings(max_examples=150, deadline=None)
@given(_files(), st.data())
def test_projected_scan_is_the_full_scan_at_the_named_positions(file, data):
    schema, rows = file
    names = schema.names
    projection = data.draw(st.lists(st.sampled_from(names), unique=True))
    if projection and data.draw(st.booleans()):
        projection.append(projection[0].upper())  # names are case-blind, repeats fold
    start = data.draw(st.integers(0, len(rows) + 3))
    count = data.draw(st.integers(0, len(rows) + 3))
    stripe_rows = data.draw(st.integers(1, 16))
    conjuncts = data.draw(st.one_of(
        st.none(),
        # c0 compared with a value of its own type: skips some stripes,
        # all of them, or none
        st.tuples(st.just("c0"), st.sampled_from(["=", "<", "<=", ">", ">="]),
                  _TYPES[schema.columns[0].dtype.value]).map(lambda c: [c]),
    ))
    wanted = {schema.index_of(name) for name in projection}
    for file_format in _formats(stripe_rows):
        stored = file_format.build(schema, rows)
        full = stored.scan_batch(start, count, None, conjuncts)
        assert None not in full.batch.columns
        got = stored.scan_batch(start, count, projection, conjuncts)
        charged = stored.scan(start, count, projection, conjuncts)
        assert got.bytes_read == charged.bytes_read
        assert got.rows_skipped == charged.rows_skipped == full.rows_skipped
        batch = got.batch
        assert (batch.width, batch.size, batch.sel) == (len(names), full.batch.size, None)
        assert batch.size == charged.batch.size
        assert None not in charged.batch.columns  # the oracle's scan is full-width
        assert list(batch.no_nulls) == list(full.batch.no_nulls)
        for position, column in enumerate(batch.columns):
            if position in wanted:
                _same_column(column, full.batch.columns[position])
            else:
                assert column is None


@pytest.mark.parametrize("format_name", ["text", "sequence", "orc"])
def test_edges_empty_file_nothing_named_and_an_unknown_name(format_name):
    schema = Schema.parse("a int, b string, c double")
    rows = [(i, f"s{i}", i / 2) for i in range(10)]
    file_format = get_format(format_name)
    empty = file_format.build(schema, []).scan_batch(0, 5, ["b"]).batch
    assert (empty.width, empty.size) == (3, 0)
    assert [None if c is None else list(c) for c in empty.columns] == [None, [], None]
    stored = file_format.build(schema, rows)
    nothing = stored.scan_batch(2, 5, []).batch
    assert nothing.columns == [None, None, None] and nothing.size == 5
    past = stored.scan_batch(50, 5, ["a"]).batch
    assert past.size == 0 and list(past.columns[0]) == [] and past.columns[1] is None
    with pytest.raises(StorageError, match="nope"):
        stored.scan_batch(0, 5, ["a", "nope"])
    # the oracle's scan is full-width whatever is named, and it refuses
    # an unknown name just the same
    assert stored.scan(2, 3, ["a"]).batch.to_rows() == rows[2:5]
    with pytest.raises(StorageError, match="nope"):
        stored.scan(0, 5, ["nope"])


def test_orc_with_every_stripe_skipped():
    schema = Schema.parse("a int, b string")
    stored = OrcFormat(4).build(schema, [(i, f"s{i}") for i in range(10)])
    result = stored.scan_batch(0, 10, ["b"], [("a", ">", 100)])
    assert (result.rows_skipped, result.bytes_read, result.batch.size) == (10, 0, 0)
    assert result.batch.columns[0] is None and list(result.batch.columns[1]) == []


def test_whole_batch_helpers_carry_an_absent_column_and_readers_refuse():
    batch = ColumnBatch([array("q", [1, 2, 3, 4]), None, ["a", "b", "c", "d"]], 4,
                        None, [True, True, True])
    window = batch[1:3]
    assert window.columns[1] is None and window.dense().columns[1] is None
    assert list(window.dense().columns[0]) == [2, 3]
    picked = batch.with_selection([3, 0]).dense()
    assert picked.columns[1] is None and list(picked.columns[2]) == ["d", "a"]
    assert take_columns(batch.columns, [2])[1] is None
    joined = ColumnBatch.concat([window.dense(), picked])
    assert joined.columns[1] is None and list(joined.columns[0]) == [2, 3, 4, 1]
    assert list(joined.no_nulls) == [True, True, True]
    with pytest.raises(ExecutionError, match="absent"):
        batch.to_rows()
    with pytest.raises(ExecutionError, match="some pieces"):
        concat_columns([None, [1]])
    for file_format in _formats(2):  # a stored file is built from present columns
        with pytest.raises(TypeError):
            file_format.from_columns(Schema.parse("a int, b int, c string"),
                                     batch.columns, batch.size)


# ---------------------------------------------------------------------------
# (b) every plan: the hints cover what the chain reads
# ---------------------------------------------------------------------------

SCRIPTS = {
    name: text for name, text in shipped_scripts().items()
    if name != "hibench-ddl"
}
_STORED_CLASSES = [RowMajorStoredFile, OrcStoredFile]


def _stores(format_name):
    return {
        "tpch": fresh_tpch(1, lineitem_sample=300, format_name=format_name),
        "hibench": fresh_hibench(0.5, sample_uservisits=240,
                                 format_name=format_name),
    }


def _run_all(engine, stores):
    """``{script: [rows per statement]}`` of every shipped script."""
    sessions = {
        name: connect(engine=engine, hdfs=hdfs, metastore=metastore)
        for name, (hdfs, metastore) in stores.items()
    }
    sessions["hibench"].execute(hibench_ddl())
    sessions["serving"] = sessions["hibench"]  # the catalog reads hivebench tables
    out = {}
    for name, script in SCRIPTS.items():
        results = sessions[name.split("-")[0]].execute(script)
        out[name] = [result.rows for result in results]
    for session in set(sessions.values()):
        session.close()
    return out


@pytest.fixture(scope="module")
def oracle_rows():
    """Per format: the ``local`` engine's rows, made once."""
    made = {}

    def rows_for(format_name):
        if format_name not in made:
            made[format_name] = _run_all("local", _stores(format_name))
        return made[format_name]

    return rows_for


@pytest.fixture
def scan_census(monkeypatch):
    """Every ``scan_batch`` call while installed, as ``(columns asked
    for, file width, positions present in the batch)``, and the hints of
    every map input of every plan an engine ran."""
    calls, hints = [], []
    for owner in _STORED_CLASSES:
        original = owner.scan_batch

        def spied(stored, row_start, row_count, columns=None,
                  stats_conjuncts=None, original=original):
            result = original(stored, row_start, row_count, columns,
                              stats_conjuncts)
            present = {
                position
                for position, column in enumerate(result.batch.columns)
                if column is not None
            }
            calls.append((columns, len(stored.schema), present, stored.schema))
            return result

        monkeypatch.setattr(owner, "scan_batch", spied)
    run_plan = Engine.run_plan

    def spy(engine, plan, *args, **kwargs):
        hints.extend(
            map_input.hints.columns
            for job in plan.jobs for map_input in job.inputs
        )
        return run_plan(engine, plan, *args, **kwargs)

    monkeypatch.setattr(Engine, "run_plan", spy)
    return calls, hints


def _materialized():
    return get_metrics().counter("storage.scan.columns_materialized").value


@pytest.mark.parametrize("format_name", ["text", "sequence", "orc"])
@pytest.mark.parametrize("engine", ["hadoop", "datampi", "llap"])
def test_every_shipped_query_on_pruned_scans(engine, format_name, oracle_rows,
                                             scan_census):
    calls, hints = scan_census
    stores = _stores(format_name)
    before = _materialized()
    got, want = _run_all(engine, stores), oracle_rows(format_name)
    assert got.keys() == want.keys()
    for name, statements in got.items():
        assert len(statements) == len(want[name])
        for rows, reference in zip(statements, want[name]):
            # float sums follow the task boundaries: equal to 6 places
            assert compare_result_rows(reference, rows, ordered=True), name
    counted = _materialized() - before
    pruned = [call for call in calls if call[0] is not None]
    assert len(pruned) > 100  # most base-table scans are
    planned = {tuple(columns) for columns in hints if columns is not None}
    expected = 0
    for columns, width, present, schema in calls:
        if columns is None:
            assert len(present) == width
        else:
            # what was asked for is a hint the planner made, and what is
            # in the batch is exactly what it names
            assert tuple(columns) in planned
            assert present == {schema.index_of(name) for name in columns}
        expected += len(present)
    assert counted == expected
    assert sum(len(columns) for columns, *_rest in pruned) == \
        sum(len(call[2]) for call in pruned)


@pytest.mark.parametrize("format_name", ["text", "orc"])
def test_files_that_disagree_on_names_are_read_whole(format_name):
    """Positions become names against one schema.  When a directory's
    files do not all carry those names in those positions the planner
    prunes nothing — pruning every file by the first one's names would
    leave the column the chain reads out of the second file's batches."""
    from repro.storage.hdfs import HDFS
    from repro.storage.metastore import Metastore

    def explain(session, sql):
        return "\n".join(row[0] for row in session.query(f"EXPLAIN {sql}").rows)

    hdfs = HDFS(num_workers=3)
    metastore = Metastore(hdfs)
    table = metastore.create_table("t", Schema.parse("a int, b int, c int"),
                                   format_name=format_name)
    for part, names in enumerate(["a int, b int, c int", "c int, a int, b int"]):
        hdfs.write(f"{table.location}/part-{part}", Schema.parse(names),
                   [(i, 10 * i, 100 * i) for i in range(1, 6)],
                   format_name=format_name, scale=1e4)
    sql = "SELECT sum(a), count(*) FROM t WHERE a > 1"
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as oracle:
        expected = oracle.query(sql).rows
    assert expected == [(28, 8)]  # by position, as every reader resolves it
    for engine in ("hadoop", "datampi", "llap"):
        with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
            assert "cols(*)" in explain(session, sql)
            assert session.query(sql).rows == expected
    # one schema throughout: the same query prunes
    hdfs.delete(f"{table.location}/part-1")
    with connect(engine="hadoop", hdfs=hdfs, metastore=metastore) as session:
        assert "cols(a)" in explain(session, sql)
        assert session.query(sql).rows == [(14, 4)]


# ---------------------------------------------------------------------------
# (c) the census bites
# ---------------------------------------------------------------------------

def _q6_and_q1(engine, format_name):
    hdfs, metastore = fresh_tpch(1, lineitem_sample=200, format_name=format_name)
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        return [session.query(tpch_query(number, 1)).rows for number in (6, 1)]


def _same(left, right):
    return all(compare_result_rows(a, b, ordered=True) for a, b in zip(left, right))


@pytest.mark.parametrize("format_name", ["text", "orc"])
def test_mutant_a_scan_that_drops_a_named_column(format_name, monkeypatch):
    assert _same(_q6_and_q1("local", format_name),
                 _q6_and_q1("hadoop", format_name))
    materialized = StoredFile._positions

    def drops_one(stored, columns):
        positions = materialized(stored, columns)
        return positions if columns is None else positions[:-1]

    monkeypatch.setattr(StoredFile, "_positions", drops_one)
    with pytest.raises(TypeError):  # a kernel subscripts the absent column
        _q6_and_q1("hadoop", format_name)


@pytest.mark.parametrize("format_name", ["text", "orc"])
def test_mutant_a_hint_that_forgets_a_filter_column(format_name, monkeypatch):
    compute = PhysicalCompiler._compute_scan_hints

    def forgets(planner, map_input):
        found = compute(planner, map_input)
        if found.columns is not None:
            filtered = {name for name, _op, _literal in found.stats_conjuncts}
            assert filtered  # Q6 and Q1 filter on l_shipdate (and more)
            found.columns = [c for c in found.columns if c not in filtered]
        return found

    monkeypatch.setattr(PhysicalCompiler, "_compute_scan_hints", forgets)
    with pytest.raises(TypeError):
        _q6_and_q1("datampi", format_name)
