"""Fig 9 — Intel HiBench performance, Hadoop vs DataMPI, 5-40 GB.

Paper: Hive on DataMPI improves AGGREGATE by ~29 % and JOIN by ~31 % on
average across the 5/10/20/40 GB data sets.
"""

from benchhelpers import emit, results_path, run_once

from repro.bench import fresh_hibench, improvement_percent, run_hibench_query
from repro.reporting.figures import format_series_table, write_csv

SIZES_GB = [5, 10, 20, 40]


def _experiment():
    results = {"aggregate": {}, "join": {}}
    for size in SIZES_GB:
        hdfs, metastore = fresh_hibench(size, sample_uservisits=12000)
        for which in results:
            for engine in ("hadoop", "datampi"):
                run = run_hibench_query(engine, hdfs, metastore, which)
                results[which].setdefault(engine, []).append(run.breakdown.total)
    return results


def test_fig09_hibench_scaling(benchmark):
    results = run_once(benchmark, _experiment)
    csv_rows = []
    for which, series in results.items():
        emit(format_series_table(
            f"Fig 9 HiBench {which.upper()}", "size (GB)", SIZES_GB, series
        ))
        improvements = [
            improvement_percent(h, d)
            for h, d in zip(series["hadoop"], series["datampi"])
        ]
        average = sum(improvements) / len(improvements)
        emit(f"{which}: per-size improvement {['%.1f%%' % i for i in improvements]}, "
             f"average {average:.1f}% (paper: ~{29 if which == 'aggregate' else 31}%)")
        for size, h, d in zip(SIZES_GB, series["hadoop"], series["datampi"]):
            csv_rows.append([which, size, round(h, 2), round(d, 2)])
        # shape: DataMPI wins at every size, average in the paper's band
        assert all(i > 0 for i in improvements)
        assert 15.0 < average < 45.0
    write_csv(results_path("fig09_hibench.csv"),
              ["workload", "size_gb", "hadoop_s", "datampi_s"], csv_rows)
