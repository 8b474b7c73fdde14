"""Absolute golden for DataMPI's shuffle-engine paths.

``data/sim_golden.json`` runs every cell at the default knobs, where the
send queue never fills and nothing spills.  This file pins the paths it
misses, on HiBench JOIN and AGGREGATE over ``fresh_hibench(gb,
sample_uservisits=3000)`` at 5 and 20 GB: a small ``hive.datampi.sendqueue``
(1, 2, 3 run in that order over *one* warehouse, like Fig. 8's sweep —
the producer blocks on the queue and same-instant ordering of
deliveries, wake-ups and timers decides the result), A-side spill
(``hive.datampi.memusedpercent=0.05``), the blocking style, the
no-overlap ablation and DAG pipelining (JOIN is a three-job plan).
Each entry is ``[repr(simulated seconds), row digest]``; the comparison
is exact.

The values were captured at ``7e980c7`` (the parent of the PR that
re-cut the DES event structure) and re-captured once after ``74b355d``,
when ``execute`` began charging the modeled compile on the simulated
clock: the plan starts at the compile seconds, every event time rounds
differently, and the small send queue turns that into different
same-instant orders (20 GB JOIN at ``sendqueue=1``: 339.66 → 345.39 s;
the rest move by under 0.05 s).  They must not move without a declared
change.  Known-sensitive: 5 GB JOIN at ``sendqueue=3``
(``142.41960190635072``) moves in the 12th digit if a waiter overtakes
a heap entry due at the same instant.  Re-capture with
``PYTHONPATH=src python -m tests.test_sim_golden_shuffle``.
"""

import hashlib
import os

import pytest

from repro.bench import fresh_hibench, run_hibench_query

from .goldens import load_golden, write_golden

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "sim_golden_shuffle.json"
)

USERVISITS_SAMPLE = 3000
SIZES_GB = (5, 20)
WORKLOADS = {
    "join": "rankings_uservisits_join",
    "aggregate": "uservisits_aggre",
}
SEND_QUEUES = (1, 2, 3)
KNOBS = {
    "spill": {"hive.datampi.memusedpercent": 0.05},
    "blocking": {"datampi.shuffle.nonblocking": "false"},
    "no-overlap": {"datampi.shuffle.overlap": "false"},
    "dag": {"hive.datampi.dag": "true"},
}
CELLS = [
    (knob, gb, which)
    for knob in ("sendqueue",) + tuple(KNOBS)
    for gb in SIZES_GB
    for which in WORKLOADS
]


def _run(hdfs, metastore, which, conf):
    run = run_hibench_query("datampi", hdfs, metastore, which, conf=conf)
    # read the output straight from HDFS: a SELECT would gather stats and
    # change what the next run over this warehouse plans
    rows = hdfs.dir_rows(metastore.get_table(WORKLOADS[which]).location)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    return [repr(run.breakdown.total), digest]


def measure(knob, gb, which):
    hdfs, metastore = fresh_hibench(gb, sample_uservisits=USERVISITS_SAMPLE)
    if knob == "sendqueue":
        return {
            str(size): _run(hdfs, metastore, which,
                            {"hive.datampi.sendqueue": size})
            for size in SEND_QUEUES
        }
    return _run(hdfs, metastore, which, KNOBS[knob])


@pytest.fixture(scope="module")
def golden():
    return load_golden(GOLDEN_PATH)


@pytest.mark.parametrize(
    "knob,gb,which", CELLS, ids=[f"{k}-{g}gb-{w}" for k, g, w in CELLS]
)
def test_shuffle_path_matches_golden(golden, knob, gb, which):
    assert measure(knob, gb, which) == golden[f"{knob}/{gb}gb/{which}"]


if __name__ == "__main__":
    write_golden(GOLDEN_PATH,
                 {f"{k}/{g}gb/{w}": measure(k, g, w) for k, g, w in CELLS})
