"""The loaders draw the stream the plain generators draw.

``repro.common.rng``'s ``draw_*`` closures stand in for
``random.Random.choice`` / ``randint`` / ``uniform`` and one date table
for ``date_add_days``; the generators of ``tests/dbgen_reference.py``
(verbatim copies from before that change) must produce the same rows,
file by file, with the same byte scales — every figure and golden
descends from them.
"""

import random

import pytest

from repro.common.rng import draw_choice, draw_randint, draw_uniform
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore
from repro.workloads.hibench import load_hibench
from repro.workloads.tpch import TPCH_SCHEMAS, load_tpch

from . import dbgen_reference


def _warehouse(load, *args, **kwargs):
    hdfs = HDFS(num_workers=7)
    metastore = Metastore(hdfs)
    info = load(hdfs, metastore, *args, **kwargs)
    return hdfs, metastore, info


def _files(hdfs, metastore, table):
    return [
        (data_file.path, data_file.scale, data_file.logical_bytes,
         data_file.rows)
        for data_file in hdfs.list_dir(metastore.get_table(table).location)
    ]


# (seed, sf, lineitem_sample): the loader's defaults, ``fresh_tpch``'s,
# hostbench's scan / tpch22 / ctas sizes at benchmark seeds, and a tiny
# one where the ``max(...)`` floors decide the row counts
@pytest.mark.parametrize("seed, sf, lineitem_sample", [
    (19920101, 1, 6000),
    (19920101, 40, 5000),
    (1, 2.0, 48000),
    (7001, 2.0, 3000),
    (910, 2.0, 24000),
    (5, 0.5, 40),
])
def test_tpch_tables_are_row_identical(seed, sf, lineitem_sample):
    got = _warehouse(load_tpch, sf, lineitem_sample=lineitem_sample, seed=seed)
    want = _warehouse(dbgen_reference.load_tpch, sf,
                      lineitem_sample=lineitem_sample, seed=seed)
    assert vars(got[2]) == vars(want[2])  # the reference has its own TpchInfo
    for table in TPCH_SCHEMAS:
        assert _files(*got[:2], table) == _files(*want[:2], table), table


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
