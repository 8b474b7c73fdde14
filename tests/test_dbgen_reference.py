"""The loaders draw the stream the plain generators draw.

``repro.common.rng``'s ``draw_*`` closures stand in for
``random.Random.choice`` / ``randint`` / ``uniform`` and one date table
for ``date_add_days``; the generators of ``tests/dbgen_reference.py``
(verbatim copies from before that change) must produce the same rows,
file by file, with the same byte scales, encoded sizes and block
layouts — every figure and golden descends from them.

The shipped loaders hold a table as columns and build each part once
(a Text table is scaled by its parts, other formats by ``text_size``
over columns); the reference still sizes and writes row lists — row
tuples to ``text_size``, and HiBench through the row-wise
``_write_table`` kept below and installed in its namespace — so the two
write paths are compared in every format.
"""

import math
import random

import pytest

from repro.common.rng import draw_choice, draw_randint, draw_uniform
from repro.common.units import MB
from repro.storage.formats.base import get_format
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore
from repro.workloads.hibench import load_hibench
from repro.workloads.tpch import TPCH_SCHEMAS, load_tpch

from . import dbgen_reference


def _write_table_rows(hdfs, metastore, name, schema, rows, logical_bytes,
                      format_name):
    """HiBench's ``_write_table`` as it took row tuples: the whole table
    encoded for its scale, then every part written from its rows."""
    if metastore.has_table(name):
        metastore.drop_table(name)
    table = metastore.create_table(name, schema, format_name=format_name)
    encoded = get_format(format_name).build(schema, rows)
    scale = logical_bytes / max(1, encoded.total_bytes)
    parts = max(1, min(8, int(math.ceil(logical_bytes / (256 * MB)))))
    chunk = (len(rows) + parts - 1) // parts
    for part in range(parts):
        piece = rows[part * chunk : (part + 1) * chunk]
        hdfs.write(
            f"{table.location}/part-{part:05d}", schema, piece,
            format_name=format_name, scale=scale, writer_node=part,
        )
    return logical_bytes


@pytest.fixture(autouse=True)
def _row_wise_reference(monkeypatch):
    monkeypatch.setattr(dbgen_reference, "_write_table", _write_table_rows)


def _warehouse(load, *args, **kwargs):
    hdfs = HDFS(num_workers=7)
    metastore = Metastore(hdfs)
    info = load(hdfs, metastore, *args, **kwargs)
    return hdfs, metastore, info


def _files(hdfs, metastore, table):
    return [
        (data_file.path, data_file.scale, data_file.logical_bytes,
         data_file.stored.total_bytes,
         [(block.row_start, block.row_count, block.logical_bytes,
           block.locations) for block in data_file.blocks],
         data_file.rows)
        for data_file in hdfs.list_dir(metastore.get_table(table).location)
    ]


# (seed, sf, lineitem_sample): the loader's defaults, ``fresh_tpch``'s,
# hostbench's scan / tpch22 / ctas sizes at benchmark seeds, and a tiny
# one where the ``max(...)`` floors decide the row counts
TPCH_CASES = [
    (19920101, 1, 6000),
    (19920101, 40, 5000),
    (1, 2.0, 48000),
    (7001, 2.0, 3000),
    (910, 2.0, 24000),
    (5, 0.5, 40),
]


def _assert_tpch_identical(seed, sf, lineitem_sample, format_name):
    args = dict(lineitem_sample=lineitem_sample, seed=seed,
                format_name=format_name)
    got = _warehouse(load_tpch, sf, **args)
    want = _warehouse(dbgen_reference.load_tpch, sf, **args)
    assert vars(got[2]) == vars(want[2])  # the reference has its own TpchInfo
    for table in TPCH_SCHEMAS:
        assert _files(*got[:2], table) == _files(*want[:2], table), table


@pytest.mark.parametrize("seed, sf, lineitem_sample", TPCH_CASES)
def test_tpch_tables_are_row_identical(seed, sf, lineitem_sample):
    _assert_tpch_identical(seed, sf, lineitem_sample, "text")


@pytest.mark.parametrize("seed, sf, lineitem_sample", TPCH_CASES)
@pytest.mark.parametrize("format_name", ["orc", "sequence"])
def test_tpch_tables_are_row_identical_in_format(
        seed, sf, lineitem_sample, format_name):
    """A non-Text table is scaled by ``text_size`` over its columns, not
    by its parts: the second sizing path."""
    _assert_tpch_identical(seed, sf, lineitem_sample, format_name)


@pytest.mark.parametrize("seed, nominal_gb, sample, format_name", [
    (1425, 1.0, 16000, "sequence"),
    (1, 1.0, 12000, "sequence"),
    (8801, 0.5, 2000, "orc"),
    (3, 20.0, 100, "text"),
])
def test_hibench_tables_are_row_identical(seed, nominal_gb, sample, format_name):
    args = dict(sample_uservisits=sample, seed=seed, format_name=format_name)
    got = _warehouse(load_hibench, nominal_gb, **args)
    want = _warehouse(dbgen_reference.load_hibench, nominal_gb, **args)
    assert got[2] == want[2]
    for table in ("rankings", "uservisits"):
        assert _files(*got[:2], table) == _files(*want[:2], table), table


def test_draws_consume_the_stream_their_methods_do():
    """Interleaved draws of every kind, small and awkward ranges
    included (``n`` a power of two, ``n == 1``): same values, and the
    generator is left in the same state."""
    words = ["a", "b", "c", "d", "e"]
    spans = [(0, 0), (99, 99), (1, 2), (0, 3), (1, 7), (0, 24), (1, 1000),
             (-5, 5), (0, 2 ** 40)]
    plain, fast = random.Random(11), random.Random(11)
    ints = [draw_randint(fast, a, b) for a, b in spans]
    pick = draw_choice(fast, words)
    real = draw_uniform(fast, -999.99, 9999.99)
    for _ in range(200):
        for (a, b), draw in zip(spans, ints):
            assert draw() == plain.randint(a, b)
        assert pick() == plain.choice(words)
        assert repr(real()) == repr(plain.uniform(-999.99, 9999.99))
    assert fast.getstate() == plain.getstate()
    with pytest.raises(ValueError):
        draw_randint(fast, 3, 2)
    with pytest.raises(IndexError):
        draw_choice(fast, [])
