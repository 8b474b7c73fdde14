"""Fig 12 — TPC-H scalability: 10/20/40 GB, Text + ORC, both engines.

Paper: execution time grows similarly on Hadoop and DataMPI as data
grows (similar scalability); averaged over the 22 queries DataMPI wins
by ~20 % (Text) and ~32 % (ORC); the best case is Q12 on the 20 GB ORC
set (~53 %).
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_tpch, improvement_percent, run_script
from repro.reporting.figures import write_csv
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_query

SIZES = [10, 20, 40]
SAMPLE = 4000


def _experiment():
    # results[(fmt, size, engine)] = [seconds per query]
    results = {}
    for format_name in ("text", "orc"):
        for size in SIZES:
            hdfs, metastore = fresh_tpch(size, lineitem_sample=SAMPLE,
                                         format_name=format_name)
            for engine in ("hadoop", "datampi"):
                per_query = []
                for query in TPCH_QUERY_IDS:
                    run = run_script(engine, hdfs, metastore, tpch_query(query, size))
                    per_query.append(run.breakdown.total)
                results[(format_name, size, engine)] = per_query
    return results


def test_fig12_tpch_scalability():
    results = _experiment()
    avg = lambda xs: sum(xs) / len(xs)

    csv_rows = []
    for (format_name, size, engine), values in sorted(results.items()):
        for query, value in zip(TPCH_QUERY_IDS, values):
            csv_rows.append([format_name, size, engine, query, round(value, 2)])
    write_csv(results_path("fig12_scalability.csv"),
              ["format", "size_gb", "engine", "query", "seconds"], csv_rows)

    best = (None, 0.0)
    for format_name in ("text", "orc"):
        emit(f"== Fig 12 ({format_name.upper()}) total of 22 queries (seconds) ==")
        for size in SIZES:
            hadoop = results[(format_name, size, "hadoop")]
            datampi = results[(format_name, size, "datampi")]
            improvements = [improvement_percent(h, d) for h, d in zip(hadoop, datampi)]
            emit(f"  {size:>2} GB: Hadoop {sum(hadoop):8.1f}  DataMPI {sum(datampi):8.1f}  "
                 f"avg improvement {avg(improvements):5.1f}%")
            for query, improvement in zip(TPCH_QUERY_IDS, improvements):
                if improvement > best[1]:
                    best = ((format_name, size, query), improvement)

    emit(f"best case: Q{best[0][2]} at {best[0][1]} GB {best[0][0].upper()} "
         f"with {best[1]:.1f}% (paper: Q12, 20 GB ORC, ~53%)")

    # scalability shape: monotone growth with size on both engines
    for format_name in ("text", "orc"):
        for engine in ("hadoop", "datampi"):
            totals = [sum(results[(format_name, size, engine)]) for size in SIZES]
            assert totals[0] < totals[1] < totals[2], \
                f"{engine}/{format_name} must scale with data size"
    # averaged improvements in the paper's bands
    text40 = [improvement_percent(h, d) for h, d in zip(
        results[("text", 40, "hadoop")], results[("text", 40, "datampi")])]
    orc40 = [improvement_percent(h, d) for h, d in zip(
        results[("orc", 40, "hadoop")], results[("orc", 40, "datampi")])]
    assert 10.0 < avg(text40) < 40.0
    assert 15.0 < avg(orc40) < 45.0
