"""Fig 8 — tuning cache-memory percent and send-queue size.

Paper (§IV-D): over 20 GB HiBench, both workloads peak around
``hive.datampi.memusedpercent = 0.4`` — near 0 the intermediate data
spills to disk, near 1 the application starves and GC hurts — and
performance stabilizes once ``hive.datampi.sendqueue`` exceeds ~6.
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_hibench, run_hibench_query
from repro.reporting.figures import format_series_table, write_csv

MEM_PERCENTS = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
QUEUE_SIZES = [1, 2, 4, 6, 8, 12]


def _experiment():
    hdfs, metastore = fresh_hibench(20, sample_uservisits=16000)
    memory_series = {"aggregate": [], "join": []}
    for percent in MEM_PERCENTS:
        for which in ("aggregate", "join"):
            run = run_hibench_query(
                "datampi", hdfs, metastore, which,
                conf={"hive.datampi.memusedpercent": percent},
            )
            memory_series[which].append(run.breakdown.total)
    queue_series = {"aggregate": [], "join": []}
    for size in QUEUE_SIZES:
        for which in ("aggregate", "join"):
            run = run_hibench_query(
                "datampi", hdfs, metastore, which,
                conf={"hive.datampi.sendqueue": size},
            )
            queue_series[which].append(run.breakdown.total)
    return memory_series, queue_series


def test_fig08_memory_and_sendqueue_tuning():
    memory_series, queue_series = _experiment()

    emit(format_series_table(
        "Fig 8(a) cache-memory percent", "memusedpercent", MEM_PERCENTS, memory_series
    ))
    emit(format_series_table(
        "Fig 8(b) send queue size", "sendqueue", QUEUE_SIZES, queue_series
    ))
    write_csv(
        results_path("fig08_tuning.csv"),
        ["knob", "value", "workload", "seconds"],
        [["memusedpercent", p, w, round(memory_series[w][i], 2)]
         for i, p in enumerate(MEM_PERCENTS) for w in memory_series]
        + [["sendqueue", q, w, round(queue_series[w][i], 2)]
           for i, q in enumerate(QUEUE_SIZES) for w in queue_series],
    )

    for which, series in memory_series.items():
        best = MEM_PERCENTS[series.index(min(series))]
        emit(f"{which}: best memusedpercent = {best} (paper: 0.4)")
        # U-shape: both extremes are worse than the sweet spot
        assert series[0] > min(series), f"{which}: low percent should spill"
        assert series[-1] > min(series), f"{which}: high percent should GC-thrash"
        assert best in (0.2, 0.4, 0.6)

    for which, series in queue_series.items():
        stable = series[QUEUE_SIZES.index(6):]
        drift = (max(stable) - min(stable)) / min(stable)
        emit(f"{which}: queue-size drift beyond 6: {100 * drift:.1f}%")
        assert drift < 0.25, "performance should be stable for sendqueue >= 6"
