"""Fig 1 — motivation: Hive-on-Hadoop job time breakdown.

Paper finding (§III): over a 20 GB HiBench data set, the Map-Shuffle
section averages >50 % of a MapReduce job and startup ~5 %, motivating
the attack on data movement and job startup.
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_hibench, run_hibench_query
from repro.reporting.breakdown import format_breakdown_table
from repro.reporting.figures import write_csv


def _experiment():
    hdfs, metastore = fresh_hibench(20, sample_uservisits=16000)
    breakdowns = {}
    for which in ("aggregate", "join"):
        run = run_hibench_query("hadoop", hdfs, metastore, which)
        breakdowns[f"hibench-{which}"] = run.breakdown
    return breakdowns


def test_fig01_motivation_breakdown():
    breakdowns = _experiment()
    emit(format_breakdown_table(breakdowns))

    rows = []
    total_ms_fraction = []
    for label, b in breakdowns.items():
        for job in b.jobs:
            rows.append(
                [label, job.job_id, round(job.startup, 2), round(job.map_shuffle, 2),
                 round(job.others, 2)]
            )
            total_ms_fraction.append(job.map_shuffle / max(1e-9, job.total))
    write_csv(results_path("fig01_motivation.csv"),
              ["query", "job", "startup_s", "map_shuffle_s", "others_s"], rows)

    average_ms = sum(total_ms_fraction) / len(total_ms_fraction)
    emit(f"average Map-Shuffle share across jobs: {100 * average_ms:.1f}% "
         f"(paper: >50% on average)")
    for label, b in breakdowns.items():
        startup_share = b.startup / max(1e-9, b.job_total)
        emit(f"{label}: startup share {100 * startup_share:.1f}% (paper: ~5%)")
    # shape assertions: data movement dominates, startup is small but real
    assert average_ms > 0.35
    assert all(b.startup / b.job_total < 0.25 for b in breakdowns.values())
