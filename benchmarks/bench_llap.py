"""LLAP benchmark: persistent daemons + caches vs per-job engines.

A repeated-query TPC-H workload (the interactive / dashboard pattern
LLAP targets) runs on the three cluster engines.  Reported per engine:

* **cold** — first pass over the distinct queries (llap pays its
  one-time daemon spawn here);
* **warm total** — the measured repeated workload, in simulated
  seconds (llap serves repeats from the result cache and re-scans
  from the decoded-stripe cache);
* **mean per-job startup** — hadoop pays JVM spin-up per job, llap
  dispatches fragments into already-running daemons.

Every run cross-checks correctness: each query's rows on every engine
must be byte-identical to the local reference executor.

Regenerates ``results/BENCH_llap.json``.
"""

from benchhelpers import emit, write_report

from repro import connect
from repro.bench import fresh_tpch
from repro.engines.base import compare_result_rows
from repro.workloads.tpch import tpch_query

# label -> (engine, conf); llap-nocache disables the result cache so
# the warm pass exercises fragment dispatch + the stripe cache
VARIANTS = (
    ("hadoop", "hadoop", None),
    ("datampi", "datampi", None),
    ("llap", "llap", None),
    ("llap-nocache", "llap", {"repro.result.cache.enabled": False}),
)
CONFIG = {"sf": 5, "sample": 3000, "queries": [1, 3, 6, 12], "repeats": 4}


def _fresh():
    return fresh_tpch(CONFIG["sf"], lineitem_sample=CONFIG["sample"],
                      format_name="orc")


def reference_rows():
    hdfs, metastore = _fresh()
    rows = {}
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as session:
        for query in CONFIG["queries"]:
            rows[query] = session.query(tpch_query(query, CONFIG["sf"])).rows
    return rows


def run_engine(engine: str, oracle, conf=None):
    """Cold pass + measured repeated workload on one engine."""
    hdfs, metastore = _fresh()
    with connect(engine=engine, hdfs=hdfs, metastore=metastore,
                 conf=conf) as session:
        cold_seconds = 0.0
        startups = []
        for query in CONFIG["queries"]:
            result = session.query(tpch_query(query, CONFIG["sf"]))
            cold_seconds += result.simulated_seconds
            if not compare_result_rows(oracle[query], result.rows,
                                       ordered=True):
                raise AssertionError(
                    f"{engine}: Q{query} cold rows diverged from local")

        warm_seconds = 0.0
        result_hits = 0
        for _round in range(CONFIG["repeats"]):
            for query in CONFIG["queries"]:
                result = session.query(tpch_query(query, CONFIG["sf"]))
                warm_seconds += result.simulated_seconds
                result_hits += int(result.cache_hit)
                if result.execution is not None:
                    startups.extend(j.startup for j in result.execution.jobs)
                if not compare_result_rows(oracle[query], result.rows,
                                           ordered=True):
                    raise AssertionError(
                        f"{engine}: Q{query} warm rows diverged from local")

        caches = session.caches()
        columnar = caches["columnar"]
    return {
        "cold_seconds": round(cold_seconds, 3),
        "warm_total_seconds": round(warm_seconds, 3),
        "mean_job_startup": round(sum(startups) / len(startups), 3)
        if startups else 0.0,
        "result_cache_hits": result_hits,
        "columnar_cache_hits": sum(s["hits"] for s in columnar.values()),
        "columnar_cache_misses": sum(s["misses"] for s in columnar.values()),
    }


def _experiment():
    oracle = reference_rows()
    report = {"config": CONFIG}
    for label, engine, conf in VARIANTS:
        report[label] = run_engine(engine, oracle, conf)
    return report


def test_llap_report():
    report = _experiment()
    write_report("BENCH_llap.json", report)

    lines = [f"{'engine':>13} {'cold':>9} {'warm total':>11} "
             f"{'job startup':>12} {'result hits':>12} {'stripe h/m':>11}"]
    for label, _engine, _config in VARIANTS:
        cell = report[label]
        lines.append(f"{label:>13} {cell['cold_seconds']:>9.1f} "
                     f"{cell['warm_total_seconds']:>11.1f} "
                     f"{cell['mean_job_startup']:>12.2f} "
                     f"{cell['result_cache_hits']:>12} "
                     f"{cell['columnar_cache_hits']:>5}/"
                     f"{cell['columnar_cache_misses']}")
    emit("\n".join(lines))

    # the two acceptance properties of the LLAP design.  llap-nocache
    # executes every warm query for real, so its per-job startup
    # measures fragment dispatch into live daemons.
    llap, nocache = report["llap"], report["llap-nocache"]
    assert nocache["mean_job_startup"] <= report["hadoop"]["mean_job_startup"]
    assert nocache["columnar_cache_hits"] > 0
    for rival in ("hadoop", "datampi"):
        speedup = report[rival]["warm_total_seconds"] / max(
            llap["warm_total_seconds"], 1e-9)
        assert speedup >= 3.0, f"warm llap only {speedup:.1f}x faster than {rival}"
