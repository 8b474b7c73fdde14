"""Concurrent-workload benchmark: scheduling policies on one shared cluster.

A mixed workload (long aggregation queries + short scans, several
pools) is submitted concurrently to one simulated cluster under each
scheduling policy, on both cluster engines.  Reported per policy:

* **makespan** — simulated seconds until the last query finishes;
* **per-query latency percentiles** (p50/p95, submit-to-finish);
* **Jain's fairness index over slowdowns** — each query's latency
  divided by its solo (empty-cluster) latency, so the index measures
  how evenly the policies spread the cost of sharing, independent of
  how long each query is intrinsically.

Every run also cross-checks correctness: each query's rows under every
policy must be byte-identical to its solo run.

Regenerates ``results/BENCH_concurrency.json``.
"""

from benchhelpers import emit, write_report

from repro import connect
from repro.bench import fresh_hibench
from repro.common.config import (
    SCHED_DEFAULT_POOL,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.sched import POLICIES, jain_fairness_index

LONG_QUERY = (
    "SELECT sourceip, SUM(adrevenue), COUNT(*), AVG(adrevenue) "
    "FROM uservisits GROUP BY sourceip"
)
# rankings is ~18x smaller than uservisits: a genuinely short scan, so
# the fifo-vs-fair contrast measures scheduling, not intrinsic runtime
SHORT_QUERY = "SELECT COUNT(*) FROM rankings"

POOLS = "etl:weight=2; adhoc:weight=1"
ENGINES = ("hadoop", "datampi")
# (pool, sql) submission schedule: long ETL queries ahead of short
# ad-hoc ones — the adversarial case for FIFO
WORKLOAD = [("etl", LONG_QUERY)] * 3 + [("adhoc", SHORT_QUERY)] * 3


def _fresh():
    return fresh_hibench(20, sample_uservisits=8000)


def solo_latencies(engine: str):
    """Each distinct query's latency (and rows) on an empty cluster."""
    hdfs, metastore = _fresh()
    latencies = {}
    rows = {}
    for sql in dict.fromkeys(sql for _pool, sql in WORKLOAD):
        with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
            result = session.query(sql)
            latencies[sql] = result.simulated_seconds
            rows[sql] = result.rows
    return latencies, rows


def run_policy(engine: str, policy: str, solo_rows):
    hdfs, metastore = _fresh()
    conf = {SCHED_POLICY: policy, SCHED_POOLS: POOLS, SCHED_DEFAULT_POOL: "adhoc"}
    with connect(engine=engine, hdfs=hdfs, metastore=metastore, conf=conf) as session:
        handles = [
            (pool, sql, session.submit(sql, pool=pool))
            for pool, sql in WORKLOAD
        ]
        session.scheduler.drain()
        latencies = []
        for pool, sql, handle in handles:
            result = handle.result()
            if result.rows != solo_rows[sql]:
                raise AssertionError(
                    f"{engine}/{policy}: rows diverged from solo for {sql!r}"
                )
            latencies.append((pool, sql, handle.latency))
        summary = session.scheduler.summary()
        if summary["oversubscribed_pools"]:
            raise AssertionError(
                f"{engine}/{policy}: oversubscribed "
                f"{summary['oversubscribed_pools']}"
            )
    return latencies, summary["makespan"]


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _experiment():
    report = {}
    for engine in ENGINES:
        solo, solo_rows = solo_latencies(engine)
        for policy in POLICIES:
            latencies, makespan = run_policy(engine, policy, solo_rows)
            slowdowns = [latency / solo[sql] for _pool, sql, latency in latencies]
            values = [latency for _pool, _sql, latency in latencies]
            adhoc = [latency for pool, _sql, latency in latencies
                     if pool == "adhoc"]
            report[f"{engine}/{policy}"] = {
                "makespan": round(makespan, 3),
                "p50_latency": round(percentile(values, 0.50), 3),
                "p95_latency": round(percentile(values, 0.95), 3),
                "adhoc_p50_latency": round(percentile(adhoc, 0.50), 3),
                "fairness_jain_slowdown": round(
                    jain_fairness_index(slowdowns), 4
                ),
                "latencies": [round(v, 3) for v in values],
            }
    return report


def test_concurrency_report():
    report = _experiment()
    write_report("BENCH_concurrency.json", report)

    lines = [f"{'engine/policy':>18} {'makespan':>9} {'p50':>8} {'p95':>8} "
             f"{'adhoc50':>8} {'jain':>6}"]
    for key, cell in report.items():
        lines.append(f"{key:>18} {cell['makespan']:>9.2f} {cell['p50_latency']:>8.2f} "
                     f"{cell['p95_latency']:>8.2f} {cell['adhoc_p50_latency']:>8.2f} "
                     f"{cell['fairness_jain_slowdown']:>6.3f}")
    emit("\n".join(lines))

    # fair sharing must help the short ad-hoc queries stuck behind the
    # ETL pool on the task-granular engine
    assert (report["hadoop/fair"]["adhoc_p50_latency"]
            < report["hadoop/fifo"]["adhoc_p50_latency"])
