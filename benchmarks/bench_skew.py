"""Skew-join benchmark: SharesSkew-style split vs plain shuffle.

A Zipf-distributed fact table joins a uniform dim table after ANALYZE
has populated the heavy-hitter sketches, with the map-join threshold
forced down so the plan is a shuffle join.  For each engine and skew
factor the join runs twice — splitting disabled (one reducer owns each
hot key) and enabled (hot keys round-robin across reducers, the dim
side replicated) — and reports:

* **max reducer share** — the hot reducer's fraction of shuffled bytes
  (the tail that sets shuffle-stage latency);
* **simulated seconds** — end-to-end query time under the cost model.

Every run cross-checks correctness: rows with and without splitting
must be byte-identical to each other and to the local reference
executor.

Regenerates ``results/BENCH_skew.json``.
"""

import math
import random

from benchhelpers import emit, write_report

from repro import HDFS, Metastore, connect
from repro.common.config import (
    HIVE_MAPJOIN_SMALLTABLE_BYTES,
    SKEWJOIN_THRESHOLD,
)
from repro.common.rows import Schema

ENGINES = ("hadoop", "datampi", "llap")
NUM_KEYS = 50
ROWS = 8000
ALPHAS = (0.8, 1.2, 1.6)
SQL = (
    "SELECT f.k, f.v, d.label FROM fact f JOIN dim d ON f.k = d.k "
    "ORDER BY f.k, f.v, d.label"
)
JOIN_CONF = {
    HIVE_MAPJOIN_SMALLTABLE_BYTES: 1,            # force a shuffle join
    "hive.exec.reducers.bytes.per.reducer": 600,  # force many reducers
}
SPLIT_THRESHOLD = 0.1  # split any key holding >= 10% of the fact rows


def zipf_keys(alpha: float, count: int, seed: int = 17):
    weights = [1.0 / math.pow(rank + 1, alpha) for rank in range(NUM_KEYS)]
    total = sum(weights)
    cumulative, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    rng = random.Random(seed)
    return [
        next(i for i, edge in enumerate(cumulative) if rng_value <= edge)
        for rng_value in (rng.random() for _ in range(count))
    ]


def build_warehouse(alpha: float):
    hdfs = HDFS(num_workers=7)
    metastore = Metastore(hdfs)
    dim_schema = Schema.parse("k int, label string")
    fact_schema = Schema.parse("k int, v int")
    dim = metastore.create_table("dim", dim_schema, format_name="sequence")
    fact = metastore.create_table("fact", fact_schema, format_name="sequence")
    hdfs.write(f"{dim.location}/part-0", dim_schema,
               [(i, f"L{i}") for i in range(NUM_KEYS)], format_name="sequence")
    keys = zipf_keys(alpha, ROWS)
    chunk = max(1, ROWS // 4)
    for part in range(0, ROWS, chunk):
        hdfs.write(f"{fact.location}/part-{part // chunk}", fact_schema,
                   [(k, part + i) for i, k in enumerate(keys[part:part + chunk])],
                   format_name="sequence")
    return hdfs, metastore


def reference_rows(alpha: float):
    hdfs, metastore = build_warehouse(alpha)
    with connect(engine="local", hdfs=hdfs, metastore=metastore,
                 conf=dict(JOIN_CONF)) as session:
        return session.query(SQL).rows


def reducer_shares(result):
    """Per-reducer share of shuffled bytes for the join job."""
    for job in result.execution.jobs:
        tasks = [t for t in job.tasks if t.kind in ("reduce", "a")]
        if job.num_reducers and job.num_reducers > 1 and tasks:
            total = sum(t.kv_bytes for t in tasks)
            if total:
                return [t.kv_bytes / total for t in tasks]
    raise AssertionError("no multi-reducer shuffle job in result")


def run_variant(engine: str, alpha: float, threshold: float):
    hdfs, metastore = build_warehouse(alpha)
    conf = dict(JOIN_CONF, **{SKEWJOIN_THRESHOLD: threshold})
    with connect(engine=engine, hdfs=hdfs, metastore=metastore,
                 conf=conf) as session:
        for table in ("fact", "dim"):
            session.execute(
                f"ANALYZE TABLE {table} COMPUTE STATISTICS FOR COLUMNS"
            )
        result = session.query(SQL)
        shares = reducer_shares(result)
    return {
        "rows": result.rows,
        "max_share": max(shares),
        "reducers": len(shares),
        "seconds": result.simulated_seconds,
    }


def _experiment():
    report = {"config": {"rows": ROWS, "alphas": list(ALPHAS),
                         "split_threshold": SPLIT_THRESHOLD}}
    for alpha in ALPHAS:
        oracle = reference_rows(alpha)
        for engine in ENGINES:
            off = run_variant(engine, alpha, threshold=0.0)
            on = run_variant(engine, alpha, SPLIT_THRESHOLD)
            if off["rows"] != oracle or on["rows"] != oracle:
                raise AssertionError(
                    f"{engine} alpha={alpha}: rows diverged from local oracle"
                )
            report[f"{engine}-a{alpha:g}"] = {
                "plain_max_share": round(off["max_share"], 4),
                "split_max_share": round(on["max_share"], 4),
                "tail_reduction": round(off["max_share"] / on["max_share"], 2),
                "plain_seconds": round(off["seconds"], 3),
                "split_seconds": round(on["seconds"], 3),
                "reducers": on["reducers"],
                "result_rows": len(oracle),
            }
    return report


def test_skew_report():
    report = _experiment()
    write_report("BENCH_skew.json", report)

    lines = [f"{'variant':>16} {'plain max':>10} {'split max':>10} "
             f"{'tail x':>7} {'plain s':>9} {'split s':>9}"]
    for alpha in ALPHAS:
        for engine in ENGINES:
            cell = report[f"{engine}-a{alpha:g}"]
            lines.append(f"{engine + '-a' + format(alpha, 'g'):>16} "
                         f"{cell['plain_max_share']:>10.3f} "
                         f"{cell['split_max_share']:>10.3f} "
                         f"{cell['tail_reduction']:>7.2f} "
                         f"{cell['plain_seconds']:>9.1f} "
                         f"{cell['split_seconds']:>9.1f}")
    emit("\n".join(lines))

    # on the most skewed workload at least two engines must collapse the
    # hot-reducer byte share by >= 2x (rows already proven identical)
    hottest = max(ALPHAS)
    improved = [engine for engine in ENGINES
                if report[f"{engine}-a{hottest:g}"]["tail_reduction"] >= 2.0]
    assert len(improved) >= 2, f"only {improved} reached a 2x reduction"
