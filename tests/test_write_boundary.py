"""The write path stays columnar (checked at runtime, sibling of
``test_exec_boundary.py``).

An engine task's output reaches ``HDFS.write`` as one dense
``ColumnBatch`` and the stored file is built from those columns, and a
map-join's small table goes from its files to the hash table as columns
too: during an INSERT on a cluster engine nothing calls
``ColumnBatch.to_rows`` and no ``StoredFile`` derives rows.  Rows are a
derivation only row readers trigger — the ``local`` engine's full-width
scan, ``HDFS.dir_rows``, the result fetch of a SELECT — and each read
derives exactly the rows it reads, every time: no file keeps them.  And an INSERT / CTAS does not read its
target back: ``PlanResult.rows`` is what a SELECT's ``QueryResult``
hands to the client, so only result-directory plans gather it.
"""

from array import array
from collections import Counter

import pytest

from repro import connect
from repro.bench import fresh_tpch
from repro.common.rows import ColumnBatch
from repro.engines.base import load_broadcast_tables
from repro.exec.operators import MapJoinDesc
from repro.storage.formats.base import RowMajorStoredFile, StoredFile
from repro.storage.formats.orc import OrcStoredFile

from .test_sim_golden_write import TARGETS
from .test_table_held_once import row_lists

CLUSTER_ENGINES = ("hadoop", "datampi", "llap")

#: the golden's four targets: map-only INSERT ... SELECT * into ORC,
#: Sequence and Text (the sink receives the scan's own columns) and a
#: filter + project one (it gathers a selection of kernel output columns)
_SETUP = ";".join(ddl for ddl, _insert, _probe in TARGETS.values()) + ";"
_INSERTS = ";".join(insert for _ddl, insert, _probe in TARGETS.values()) + ";"
#: target -> the SELECT its INSERT runs
_QUERIES = {
    target: "SELECT " + insert.split(" SELECT ", 1)[1]
    for target, (_ddl, insert, _probe) in TARGETS.items()
}


class RowMaterializations:
    """Counts ``ColumnBatch.to_rows`` calls and the rows each
    ``StoredFile`` derives (per file) while installed — the rows of
    ``StoredFile.rows`` and those of the oracle's full-width ``scan``,
    which the ``local`` engine turns into row tuples."""

    def __init__(self):
        self.to_rows = 0
        # stored file -> rows derived (the key keeps the file alive, so
        # a dead file's id cannot be mistaken for a later one's)
        self.derived = Counter()

    def reset(self):
        self.to_rows = 0
        self.derived.clear()


@pytest.fixture
def materializations(monkeypatch):
    """Wrappers on every row-materialization point; monkeypatch removes
    them when the test ends."""
    counts = RowMaterializations()
    to_rows = ColumnBatch.to_rows

    def counted_to_rows(batch):
        counts.to_rows += 1
        return to_rows(batch)

    monkeypatch.setattr(ColumnBatch, "to_rows", counted_to_rows)
    for owner in (RowMajorStoredFile, OrcStoredFile):
        derive = owner._derive_rows

        def counted_derive(stored, row_start, row_end, derive=derive):
            before = counts.to_rows  # deriving goes through to_rows:
            rows = derive(stored, row_start, row_end)  # count it as rows
            counts.to_rows = before
            counts.derived[stored] += len(rows)
            return rows

        monkeypatch.setattr(owner, "_derive_rows", counted_derive)
    scan = StoredFile.scan

    def counted_scan(stored, *args, **kwargs):
        result = scan(stored, *args, **kwargs)
        counts.derived[stored] += result.batch.size
        return result

    monkeypatch.setattr(StoredFile, "scan", counted_scan)
    return counts


@pytest.fixture
def warehouse():
    hdfs, metastore = fresh_tpch(1, lineitem_sample=1500)
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as session:
        session.execute(_SETUP)
    return hdfs, metastore


def _table_files(hdfs, metastore, table):
    return hdfs.list_dir(metastore.get_table(table).location)


@pytest.mark.parametrize("engine", CLUSTER_ENGINES)
def test_insert_never_materializes_rows(engine, warehouse, materializations):
    hdfs, metastore = warehouse
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as oracle:
        expected = {
            target: oracle.query(query).rows
            for target, query in _QUERIES.items()
        }
    assert len(expected["li_orc"]) > len(expected["li_proj"]) > 0

    materializations.reset()
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        results = session.execute(_INSERTS)
    assert materializations.to_rows == 0
    assert not materializations.derived
    # nor is the target read back: an INSERT returns no rows
    assert [result.execution.rows for result in results] == [[]] * 4
    assert [result.rows for result in results] == [[]] * 4
    for table, rows in expected.items():
        files = _table_files(hdfs, metastore, table)
        assert sum(data_file.row_count for data_file in files) == len(rows)
    assert not materializations.derived  # row_count derives nothing

    # every row read derives exactly the rows it reads, and they are the
    # oracle's; nothing keeps them, so the next read derives them again
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as reader:
        for table, rows in expected.items():
            files = _table_files(hdfs, metastore, table)
            assert len(files) > 1  # one part-file per map task
            each_row_once = Counter(
                {data_file.stored: data_file.row_count for data_file in files}
            )
            location = metastore.get_table(table).location
            reads = (
                lambda: reader.query(f"SELECT * FROM {table}").rows,
                lambda: reader.query(f"SELECT count(*) FROM {table}").rows,
                lambda: hdfs.dir_rows(location),
            )
            got = []
            for read in reads:
                materializations.reset()
                got.append(read())
                # result files of the SELECTs derive too: only count
                # the table's own files
                assert Counter({
                    stored: count for stored, count
                    in materializations.derived.items()
                    if stored in each_row_once
                }) == each_row_once
            selected, counted, listed = got
            assert sorted(selected, key=repr) == sorted(rows, key=repr)
            assert counted == [(len(rows),)]
            assert listed == selected
            for data_file in files:
                assert not row_lists(data_file.stored)


@pytest.mark.parametrize("engine", ("local",) + CLUSTER_ENGINES)
def test_only_result_directory_plans_gather_rows(engine, warehouse,
                                                 materializations):
    hdfs, metastore = warehouse
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        inserted = session.execute(
            "INSERT OVERWRITE TABLE li_seq SELECT * FROM lineitem;"
            "INSERT INTO TABLE li_seq SELECT * FROM lineitem;"
            "CREATE TABLE li_copy STORED AS ORC AS SELECT * FROM lineitem;"
        )
        assert [result.execution.rows for result in inserted] == [[], [], []]
        # nothing is read back: only the local engine's row scan of the
        # source derives rows
        source = _table_files(hdfs, metastore, "lineitem")
        scanned = {f.stored for f in source} if engine == "local" else set()
        assert set(materializations.derived) <= scanned
        selected = session.query("SELECT count(*) FROM li_seq")
        assert selected.execution.rows == selected.rows == [
            (2 * sum(f.row_count for f in source),)
        ]


@pytest.mark.parametrize("engine", CLUSTER_ENGINES)
def test_scheduled_insert_does_not_read_its_target_back(
        engine, warehouse, materializations):
    hdfs, metastore = warehouse
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        insert = session.submit(
            "INSERT OVERWRITE TABLE li_orc SELECT * FROM lineitem"
        )
        select = session.submit("SELECT count(*) FROM lineitem")
        assert insert.result().execution.rows == []
        source = sum(
            f.row_count for f in _table_files(hdfs, metastore, "lineitem")
        )
        assert select.result().rows == [(source,)]
        written = {f.stored for f in _table_files(hdfs, metastore, "li_orc")}
    assert materializations.to_rows == 0
    # the SELECT's result file is fetched (a row reader); the INSERT's
    # target is not
    assert written and not written & set(materializations.derived)


class TestToRowsWindow:
    """``ColumnBatch.to_rows`` on an engine window (a ``range`` selection
    with step 1 — what ``batch[a:b]`` produces) slices its columns
    instead of gathering them element by element."""

    COLUMNS = [
        array("q", range(10)),
        array("d", (value / 2 for value in range(10))),
        [None if value % 3 == 0 else f"s{value}" for value in range(10)],
        tuple(value % 2 == 0 for value in range(10)),
    ]
    ROWS = list(zip(*COLUMNS))

    class _NoGather(list):
        def __getitem__(self, item):
            assert isinstance(item, slice), "gathered element by element"
            return list.__getitem__(self, item)

    def test_window_matches_the_row_slice(self):
        batch = ColumnBatch(self.COLUMNS, 10)
        for window in (slice(0, 10), slice(3, 7), slice(9, 10), slice(4, 4)):
            assert batch[window].to_rows() == self.ROWS[window]

    def test_window_slices_typed_and_list_columns(self):
        columns = [self._NoGather(column) for column in self.COLUMNS]
        window = ColumnBatch(columns, 10)[2:8]
        assert type(window.sel) is range
        assert window.to_rows() == self.ROWS[2:8]
        dense = window.dense()
        assert dense.sel is None and dense.size == 6
        assert dense.to_rows() == self.ROWS[2:8]

    def test_dense_keeps_typed_buffers_typed(self):
        batch = ColumnBatch(self.COLUMNS, 10)
        for selection in (batch[2:8], batch.with_selection([1, 4, 5, 9])):
            dense = selection.dense()
            assert [type(column) for column in dense.columns[:2]] == \
                [array, array]
            assert [column.typecode for column in dense.columns[:2]] == \
                ["q", "d"]
            assert dense.to_rows() == selection.to_rows()
        assert batch.dense() is batch

    def test_other_selections_still_gather(self):
        batch = ColumnBatch(self.COLUMNS, 10)
        assert batch.with_selection([7, 2, 2]).to_rows() == \
            [self.ROWS[7], self.ROWS[2], self.ROWS[2]]
        assert batch.with_selection(range(0, 10, 3)).to_rows() == \
            self.ROWS[0:10:3]

    def test_concat(self):
        batch = ColumnBatch(self.COLUMNS, 10)
        pieces = [batch[0:4].dense(), batch[4:4].dense(), batch[4:10].dense()]
        joined = ColumnBatch.concat(pieces)
        assert joined.sel is None and joined.size == 10
        assert joined.to_rows() == self.ROWS
        assert [type(column) for column in joined.columns] == \
            [array, array, list, list]
        assert ColumnBatch.concat(pieces[:1]) is pieces[0]
        empty = ColumnBatch.concat([])
        assert (empty.size, empty.columns, empty.to_rows()) == (0, [], [])


#: a map-join INSERT on every cluster engine: the small side (supplier,
#: behind a pushed-down filter, so its broadcast chain runs) and an empty
#: small side (a table with no file), inner and left
_JOIN_SETUP = (
    "CREATE TABLE li_sup (l_orderkey bigint, s_name string) STORED AS ORC;"
    "CREATE TABLE sup_nation (s_suppkey bigint, n_name string) STORED AS ORC;"
    "CREATE TABLE nation_none (n_nationkey int, n_name string, "
    "n_regionkey int, n_comment string);"
)
_JOINS = {
    "li_sup": "SELECT l_orderkey, s_name FROM lineitem JOIN supplier "
              "ON l_suppkey = s_suppkey WHERE s_nationkey < 10",
    "sup_nation": "SELECT s_suppkey, n_name FROM supplier JOIN nation_none "
                  "ON s_nationkey = n_nationkey",
    "sup_nation_left": "SELECT s_suppkey, n_name FROM supplier LEFT JOIN "
                       "nation_none ON s_nationkey = n_nationkey",
}


def _map_joins(result):
    return [
        descriptor for job in result.plan.jobs for map_input in job.inputs
        for descriptor in map_input.operators
        if isinstance(descriptor, MapJoinDesc)
    ]


@pytest.mark.parametrize("engine", CLUSTER_ENGINES)
def test_map_join_insert_stays_columnar(engine, warehouse, materializations):
    hdfs, metastore = warehouse
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as oracle:
        oracle.execute(_JOIN_SETUP)
        expected = {name: oracle.query(query).rows
                    for name, query in _JOINS.items()}
    assert len(expected["li_sup"]) > 0
    assert expected["sup_nation"] == []  # inner join with an empty side
    assert expected["sup_nation_left"]
    assert all(name is None for _key, name in expected["sup_nation_left"])

    for name, query in _JOINS.items():
        target = "sup_nation" if name.startswith("sup_nation") else name
        materializations.reset()
        with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
            (result,) = session.execute(
                f"INSERT OVERWRITE TABLE {target} {query}"
            )
        assert _map_joins(result), f"{name}: no map-join in the plan"
        assert materializations.to_rows == 0, name
        assert not materializations.derived, name
        got = hdfs.dir_rows(metastore.get_table(target).location)
        assert sorted(got, key=repr) == sorted(expected[name], key=repr), name


def test_an_empty_broadcast_table_keeps_its_width(warehouse):
    """A small side no row reaches — no file, only empty files, or a
    broadcast chain that drops every row — is still ``spec.width``
    columns wide, so the map-join reads its width from the table."""
    hdfs, metastore = warehouse
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as oracle:
        oracle.execute(_JOIN_SETUP + "CREATE TABLE nation_empty (n_nationkey "
                       "int, n_name string, n_regionkey int, n_comment string);")
    table = metastore.get_table("nation_empty")
    hdfs.write(f"{table.location}/part-00000", table.schema, [])
    small_sides = {
        "no file": "nation_none",
        "empty files": "nation_empty",
        "every row dropped": "(SELECT * FROM nation WHERE n_nationkey < 0) n",
    }
    with connect(engine="hadoop", hdfs=hdfs, metastore=metastore) as session:
        for case, small in small_sides.items():
            (explained,) = session.execute(
                f"EXPLAIN SELECT s_suppkey, n_name FROM supplier LEFT JOIN "
                f"{small} ON s_nationkey = n_nationkey"
            )
            (job,) = [job for job in explained.plan.jobs if job.broadcasts]
            tables = load_broadcast_tables(job, hdfs, vectorized=True)
            for spec in job.broadcasts:
                batch = tables[spec.location].batch
                assert (batch.size, batch.width) == (0, spec.width), case
