"""Fig 10 — HiBench 20 GB per-job breakdown, Hadoop vs DataMPI.

Paper findings reproduced here:

* every job's startup is ~30 % shorter on DataMPI (light-weight
  framework vs per-job JVM machinery);
* AGGREGATE's Map-Shuffle section improves ~40 %;
* JOIN's three jobs improve their MS sections by ~20 % (JOB1), ~55 %
  (JOB2) and ~70 % (JOB3, the 1-map/1-reduce sink job that benefits
  purely from light-weight process management).
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_hibench, improvement_percent, run_hibench_query
from repro.reporting.breakdown import format_breakdown_table
from repro.reporting.figures import write_csv


def _experiment():
    hdfs, metastore = fresh_hibench(20, sample_uservisits=16000)
    runs = {}
    for which in ("aggregate", "join"):
        for engine in ("hadoop", "datampi"):
            runs[(which, engine)] = run_hibench_query(engine, hdfs, metastore, which)
    return runs


def test_fig10_hibench_breakdown():
    runs = _experiment()
    emit(format_breakdown_table(
        {f"{which}/{engine}": run.breakdown for (which, engine), run in runs.items()}
    ))

    csv_rows = []
    startup_improvements = []
    ms_improvements = {}
    for which in ("aggregate", "join"):
        hadoop = runs[(which, "hadoop")].breakdown
        datampi = runs[(which, "datampi")].breakdown
        assert len(hadoop.jobs) == len(datampi.jobs), "same physical plan -> same #jobs"
        for index, (hj, dj) in enumerate(zip(hadoop.jobs, datampi.jobs)):
            startup_improvements.append(improvement_percent(hj.startup, dj.startup))
            ms_improvements[(which, index)] = improvement_percent(
                hj.map_shuffle, dj.map_shuffle
            )
            csv_rows.append(
                [which, index, round(hj.startup, 2), round(hj.map_shuffle, 2),
                 round(hj.others, 2), round(dj.startup, 2),
                 round(dj.map_shuffle, 2), round(dj.others, 2)]
            )
    write_csv(results_path("fig10_breakdown.csv"),
              ["workload", "job", "h_startup", "h_ms", "h_others",
               "d_startup", "d_ms", "d_others"], csv_rows)

    average_startup = sum(startup_improvements) / len(startup_improvements)
    emit(f"average startup improvement: {average_startup:.1f}% (paper: ~30%)")
    assert 20.0 < average_startup < 50.0

    for (which, index), improvement in sorted(ms_improvements.items()):
        emit(f"{which} job{index + 1} MS improvement: {improvement:.1f}%")
    # paper band: 20%-70% across jobs, with the sink job (JOIN job3) highest
    assert all(10.0 < value <= 90.0 for value in ms_improvements.values())
    join_values = [v for (w, _i), v in ms_improvements.items() if w == "join"]
    assert max(join_values) == ms_improvements[("join", 2)], \
        "the tiny sink job should benefit the most from light-weight tasks"
