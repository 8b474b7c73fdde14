"""Absolute golden for simulated seconds and result rows.

``data/sim_golden.json`` pins ``repr(simulated_seconds)`` and a row
digest for every engine x storage format on TPC-H Q1/Q3/Q12 and HiBench
AGGREGATE/JOIN.  Simulated seconds are the paper's
numbers: a refactor must not move them, so the comparison is exact.
Re-captured once after ``74b355d``, when ``execute`` began charging the
modeled compile on the simulated clock like ``submit`` (the plan starts
at the compile seconds, so event times round differently): 14 of 30
cells moved in the last digits, no digest moved.  Re-capture (only
after a deliberate cost-model change) with
``PYTHONPATH=src python -m tests.test_sim_golden``.
"""

import hashlib
import os

import pytest

from repro import connect
from repro.bench import fresh_hibench, fresh_tpch
from repro.workloads.hibench import HIBENCH_AGGREGATE, HIBENCH_JOIN, hibench_ddl
from repro.workloads.tpch import tpch_query

from .goldens import load_golden, write_golden

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "sim_golden.json")

SF = 1
LINEITEM_SAMPLE = 3000  # several row batches per split
HIBENCH_GB = 0.5
USERVISITS_SAMPLE = 3000
ENGINES = ("hadoop", "datampi", "llap")
FORMATS = ("text", "orc")
CELLS = [(engine, fmt) for engine in ENGINES for fmt in FORMATS]


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def measure(engine, fmt):
    """``{query: [repr(simulated seconds), row digest]}`` for one cell,
    each on its own fresh warehouse so cells do not depend on run order."""
    out = {}
    hdfs, metastore = fresh_tpch(SF, lineitem_sample=LINEITEM_SAMPLE,
                                 format_name=fmt)
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        for number in (1, 3, 12):
            results = session.execute(tpch_query(number, SF))
            rows = [r for r in results if r.statement == "select"][-1].rows
            simulated = sum(r.simulated_seconds for r in results)
            out[f"tpch_q{number}"] = [repr(simulated), _digest(rows)]
    hdfs, metastore = fresh_hibench(HIBENCH_GB,
                                    sample_uservisits=USERVISITS_SAMPLE,
                                    format_name=fmt)
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        session.execute(hibench_ddl())
        for name, script, table in (
            ("hibench_aggregate", HIBENCH_AGGREGATE, "uservisits_aggre"),
            ("hibench_join", HIBENCH_JOIN, "rankings_uservisits_join"),
        ):
            simulated = sum(
                r.simulated_seconds for r in session.execute(script)
            )
            rows = session.execute(f"SELECT * FROM {table};")[-1].rows
            out[name] = [repr(simulated), _digest(rows)]
    return out


@pytest.fixture(scope="module")
def golden():
    return load_golden(GOLDEN_PATH)


# ids keep the suffix they had beside the retired ``-row`` cells, so a
# cell's history reads under one name
@pytest.mark.parametrize(
    "engine,fmt", CELLS, ids=[f"{e}-{f}-vectorized" for e, f in CELLS]
)
def test_simulated_seconds_and_rows_match_golden(golden, engine, fmt):
    assert measure(engine, fmt) == golden[f"{engine}/{fmt}"]


if __name__ == "__main__":
    write_golden(GOLDEN_PATH, {f"{e}/{f}": measure(e, f) for e, f in CELLS})
