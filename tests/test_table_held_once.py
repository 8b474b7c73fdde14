"""A loaded table is held once, as its columns.

The loaders draw rows but keep them as columns a chunk at a time, and
every part file is built once from column slices: a numeric column of a
stored file is the typed buffer the loader handed the format (Text and
Sequence keep that very object; ORC cuts its stripes from it), and no
file is ever built from row tuples.  A stored file keeps no row list: a
row reader — the ``local`` engine's scan, ``HDFS.dir_rows``, a SELECT's
result fetch — derives what it reads and lets it go, and ``ANALYZE``
reads columns.  ``tests/test_write_boundary.py`` counts the derivations
of the engines' write path.
"""

from array import array

import pytest

from repro import connect
from repro.common.rows import DataType
from repro.storage.formats.base import FileFormat, RowMajorStoredFile, get_format
from repro.storage.formats.orc import OrcStoredFile, Stripe
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore
from repro.workloads.hibench import load_hibench
from repro.workloads.tpch import TPCH_SCHEMAS, load_tpch

FORMATS = ("text", "orc", "sequence")
NUMERIC = (DataType.INT, DataType.BIGINT, DataType.DOUBLE)

#: what a stored file may hold: containers and the format's own parts
_WALKED = (list, dict, Stripe)


def row_lists(stored):
    """Attribute paths of *stored* that hold a list of row tuples (no
    column of a shipped schema holds tuples, so any tuple in a list
    reachable from the file is a row)."""
    found = []
    pending = [(name, value) for name, value in vars(stored).items()
               if name != "schema"]
    while pending:
        path, value = pending.pop()
        if isinstance(value, dict):
            pending.extend((f"{path}[{key!r}]", item)
                           for key, item in value.items()
                           if isinstance(item, _WALKED))
        elif isinstance(value, Stripe):
            pending.append((f"{path}.chunks", value.chunks))
        elif isinstance(value, list):
            if any(type(item) is tuple for item in value):
                found.append(path)
                continue
            pending.extend((f"{path}[{index}]", item)
                           for index, item in enumerate(value)
                           if isinstance(item, _WALKED))
    return found


def stored_files(hdfs):
    return [data_file.stored for data_file in hdfs.list_dir("/")]


def _load(loader, format_name):
    hdfs = HDFS(num_workers=5)
    metastore = Metastore(hdfs)
    if loader == "tpch":
        load_tpch(hdfs, metastore, 1, lineitem_sample=1200, seed=3,
                  format_name=format_name)
    else:  # 0.5 GB nominal: uservisits in two parts, rankings in one
        load_hibench(hdfs, metastore, 0.5, sample_uservisits=1200, seed=3,
                     format_name=format_name)
    return hdfs, metastore


@pytest.mark.parametrize("format_name", FORMATS)
@pytest.mark.parametrize("loader", ("tpch", "hibench"))
def test_loaders_hand_the_formats_typed_buffers(loader, format_name,
                                                monkeypatch):
    handed = {}  # id(stored file) -> the columns the format was handed
    file_format = get_format(format_name)
    from_columns = file_format.from_columns

    def recording(schema, columns, size):
        columns = list(columns)
        stored = from_columns(schema, columns, size)
        handed[id(stored)] = columns
        return stored

    def no_rows(*_args):
        raise AssertionError("a loader built a file from row tuples")

    monkeypatch.setattr(file_format, "from_columns", recording)
    monkeypatch.setattr(FileFormat, "build", no_rows)
    hdfs, _metastore = _load(loader, format_name)

    files = stored_files(hdfs)
    assert files and all(stored.row_count for stored in files)
    for stored in files:
        columns = handed[id(stored)]
        for position, column in enumerate(stored.schema.columns):
            if column.dtype not in NUMERIC:
                continue
            given = columns[position]
            assert isinstance(given, array), (stored.schema, column)
            if isinstance(stored, RowMajorStoredFile):
                assert stored.columns[position] is given  # kept as handed
            else:
                assert isinstance(stored, OrcStoredFile)
                assert all(isinstance(stripe[position], array)
                           for stripe in stored._stripe_columns)
        assert not row_lists(stored)


@pytest.mark.parametrize("format_name", FORMATS)
def test_row_readers_leave_no_row_list_behind(format_name):
    hdfs, metastore = _load("tpch", format_name)
    location = metastore.get_table("lineitem").location
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as session:
        selected = session.query("SELECT * FROM lineitem").rows
        assert hdfs.dir_rows(location) == selected
        for table in TPCH_SCHEMAS:
            session.execute(
                f"ANALYZE TABLE {table} COMPUTE STATISTICS FOR COLUMNS")
        assert session.metastore.get_table_stats("lineitem").row_count == \
            len(selected)
    files = stored_files(hdfs)
    assert files
    for stored in files:
        assert not row_lists(stored), stored


def test_the_detector_sees_a_row_list():
    """The structural check itself: a file carrying a row list, flat or
    per stripe, is caught."""
    hdfs, _metastore = _load("tpch", "orc")
    stored = next(iter(stored_files(hdfs)))
    assert not row_lists(stored)
    stored.kept = stored.rows
    assert row_lists(stored) == ["kept"]
    del stored.kept
    stored.stripes[0].chunks["kept"] = [stored.rows[0]]
    assert row_lists(stored) == ["stripes[0].chunks['kept']"]
