"""Absolute golden for the write path: INSERT OVERWRITE into every format.

``data/sim_golden.json`` reads tables the loaders wrote; this file pins
what the *engines* write.  Per engine, over one
``fresh_tpch(1, lineitem_sample=3000)`` warehouse: ``INSERT OVERWRITE
... SELECT * FROM lineitem`` into an ORC, a Sequence and a Text table
(the sink receives the scan's own columns), plus a filter + computed
projection into ORC (the sink gathers a selection and receives kernel
output columns), each followed by ``SELECT count(*), sum(...)`` from
the target.  Each entry pins ``repr(simulated_seconds)`` of both
statements, every written file's block boundaries
(``"row_start+row_count:repr(logical_bytes)"`` — they come from the
encoded sizes) and a digest of the target's rows; the comparison is
exact.

The values were captured at ``682c24c`` (the parent of the PR that made
the write path column-primary); the seconds were re-captured once after
``74b355d``, when ``execute`` began charging the modeled compile on the
simulated clock (last digits only; no block boundary or digest moved).
They must not move without a declared cost-model or format change.  Re-capture, only after such a declared
change, with ``PYTHONPATH=src python -m tests.test_sim_golden_write``.
"""

import hashlib
import os

import pytest

from repro import connect
from repro.bench import fresh_tpch

from .goldens import load_golden, write_golden

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "sim_golden_write.json"
)

SF = 1
LINEITEM_SAMPLE = 3000
ENGINES = ("hadoop", "datampi", "llap")

_LINEITEM_DDL = (
    "l_orderkey bigint, l_partkey bigint, l_suppkey bigint, "
    "l_linenumber int, l_quantity double, l_extendedprice double, "
    "l_discount double, l_tax double, l_returnflag string, "
    "l_linestatus string, l_shipdate date, l_commitdate date, "
    "l_receiptdate date, l_shipinstruct string, l_shipmode string, "
    "l_comment string"
)
#: target -> (DDL, INSERT, probe SELECT)
TARGETS = {
    "li_orc": (
        f"CREATE TABLE li_orc ({_LINEITEM_DDL}) STORED AS ORC",
        "INSERT OVERWRITE TABLE li_orc SELECT * FROM lineitem",
        "SELECT count(*), sum(l_quantity) FROM li_orc",
    ),
    "li_seq": (
        f"CREATE TABLE li_seq ({_LINEITEM_DDL}) STORED AS SEQUENCEFILE",
        "INSERT OVERWRITE TABLE li_seq SELECT * FROM lineitem",
        "SELECT count(*), sum(l_quantity) FROM li_seq",
    ),
    "li_text": (
        f"CREATE TABLE li_text ({_LINEITEM_DDL}) STORED AS TEXTFILE",
        "INSERT OVERWRITE TABLE li_text SELECT * FROM lineitem",
        "SELECT count(*), sum(l_quantity) FROM li_text",
    ),
    "li_proj": (
        "CREATE TABLE li_proj (k bigint, n int, q double, d date) "
        "STORED AS ORC",
        "INSERT OVERWRITE TABLE li_proj SELECT l_orderkey, "
        "l_linenumber + 1, l_quantity * 2, l_shipdate FROM lineitem "
        "WHERE l_discount > 0.04",
        "SELECT count(*), sum(q) FROM li_proj",
    ),
}


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def measure(engine):
    """``{target: {...}}`` for one engine on a fresh warehouse."""
    hdfs, metastore = fresh_tpch(SF, lineitem_sample=LINEITEM_SAMPLE)
    out = {}
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        for target, (ddl, insert, probe) in TARGETS.items():
            session.execute(ddl + ";")
            inserted = session.execute(insert + ";")
            location = metastore.get_table(target).location
            files = {
                data_file.path.replace(location, "", 1): [
                    f"{block.row_start}+{block.row_count}:"
                    f"{block.logical_bytes!r}"
                    for block in data_file.blocks
                ]
                for data_file in hdfs.list_dir(location)
            }
            probed = session.execute(probe + ";")
            out[target] = {
                "insert_seconds": repr(
                    sum(r.simulated_seconds for r in inserted)
                ),
                "select_seconds": repr(
                    sum(r.simulated_seconds for r in probed)
                ),
                "select_rows": repr(probed[-1].rows),
                "files": files,
                "rows": _digest(hdfs.dir_rows(location)),
            }
    return out


@pytest.fixture(scope="module")
def golden():
    return load_golden(GOLDEN_PATH)


@pytest.mark.parametrize("engine", ENGINES)
def test_written_files_and_simulated_seconds_match_golden(golden, engine):
    measured = measure(engine)
    for target in TARGETS:
        assert measured[target] == golden[engine][target], target


if __name__ == "__main__":
    write_golden(GOLDEN_PATH, {engine: measure(engine) for engine in ENGINES})
