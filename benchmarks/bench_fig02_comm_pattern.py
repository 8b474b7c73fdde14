"""Fig 2 — Hive's irregular communication characteristics.

(a)/(b): the collect-operation *time sequences* of map tasks — HiBench
AGGREGATE in Hive ends its maps over a wide, irregular window while
TeraSort's maps end almost simultaneously (paper: 19-25 s spread vs
centralized at 25 s).

(c)/(d): the *sizes* of the collected key-value pairs — AGGREGATE is
centralized around one size (~32 B in the paper), TPC-H Q3 is
multi-modal (~14 B and ~32 B) because different tables/columns flow
through the same shuffle.
"""

import statistics

from benchhelpers import emit, results_path

from repro.bench import fresh_hibench, fresh_tpch, run_hibench_query, run_script
from repro.reporting.figures import write_csv
from repro.workloads.terasort import load_teragen, terasort_job
from repro.workloads.tpch import tpch_query
from repro.engines.hadoop import HadoopEngine


def _collect_windows(tasks):
    """Per-map collect window: first map start -> last collect call.

    Absolute end times are dominated by wave structure at this cluster
    size, so (like the paper's per-task time-sequence plot) we compare
    the *per-task* collect windows: how long each map keeps collecting.
    """
    return [
        task.collect_samples[-1][0] - task.started
        for task in tasks
        if task.kind in ("map", "o") and task.collect_samples
    ]


def _map_tasks(run):
    return [
        task
        for result in run.results
        if result.execution is not None
        for job in result.execution.jobs[:1]  # first (scan) job
        for task in job.tasks
    ]


def _terasort_run(hdfs, metastore):
    engine = HadoopEngine(hdfs)
    plan = terasort_job()
    return engine.run_plan(plan)


def _experiment():
    out = {}

    hdfs, metastore = fresh_hibench(20, sample_uservisits=16000)
    aggregate = run_hibench_query("hadoop", hdfs, metastore, "aggregate")
    out["hive_windows"] = _collect_windows(_map_tasks(aggregate))

    load_teragen(hdfs, metastore, 20)
    tera = _terasort_run(hdfs, metastore)
    out["terasort_windows"] = _collect_windows(
        [task for job in tera.jobs for task in job.tasks]
    )

    # KV size histograms come from re-driving the first job's map side
    # functionally (the histogram lives in the operator context)
    from repro.engines.base import expand_job_splits, scan_split
    from repro.exec.mapper import ExecMapper
    from repro.exec.operators import ListCollector

    def histogram_for(hdfs, metastore, script, engine="local"):
        run = run_script(engine, hdfs, metastore, script)
        histogram = {}
        for result in run.results:
            if result.plan is None:
                continue
            job = result.plan.jobs[0]
            for tagged in expand_job_splits(job, hdfs):
                if not any(
                    type(op).__name__ == "ReduceSinkDesc" for op in tagged.operators
                ):
                    continue
                rows, _bytes = scan_split(tagged)
                mapper = ExecMapper(tagged.operators, ListCollector(), 16)
                mapper.process_batch(rows)
                mapper.close()
                for size, count in mapper.context.kv_size_histogram.items():
                    histogram[size] = histogram.get(size, 0) + count
            break  # first statement with a plan is enough
        return histogram

    hdfs2, metastore2 = fresh_hibench(20, sample_uservisits=12000)
    from repro.workloads.hibench import HIBENCH_AGGREGATE, hibench_ddl
    run_script("local", hdfs2, metastore2, hibench_ddl())
    out["aggregate_kv_hist"] = histogram_for(hdfs2, metastore2, HIBENCH_AGGREGATE)

    hdfs3, metastore3 = fresh_tpch(20, lineitem_sample=8000)
    out["q3_kv_hist"] = histogram_for(hdfs3, metastore3, tpch_query(3, 20))
    return out


def _spread(values):
    if len(values) < 2:
        return 0.0
    return statistics.pstdev(values) / max(1e-9, statistics.mean(values))


def test_fig02_communication_pattern():
    data = _experiment()

    hive_windows = data["hive_windows"]
    tera_windows = data["terasort_windows"]
    hive_cv = _spread(hive_windows)
    tera_cv = _spread(tera_windows)
    emit(
        "Fig 2(a)/(b) per-map collect windows (start -> last collect):\n"
        f"  hive AGGREGATE: n={len(hive_windows)} "
        f"range=[{min(hive_windows):.1f}, {max(hive_windows):.1f}]s "
        f"variation={hive_cv:.3f}\n"
        f"  TeraSort      : n={len(tera_windows)} "
        f"range=[{min(tera_windows):.1f}, {max(tera_windows):.1f}]s "
        f"variation={tera_cv:.3f}\n"
        "  (paper: Hive's collect sequences irregular, TeraSort's centralized)"
    )
    assert hive_cv > tera_cv, "Hive map work must be more irregular than TeraSort's"

    agg_hist = data["aggregate_kv_hist"]
    q3_hist = data["q3_kv_hist"]

    def top_modes(histogram, k=3):
        return sorted(histogram.items(), key=lambda kv: -kv[1])[:k]

    agg_modes = top_modes(agg_hist)
    q3_modes = top_modes(q3_hist)
    emit(
        "Fig 2(c)/(d) KV pair sizes:\n"
        f"  AGGREGATE modes: {agg_modes} (paper: centralized ~32B)\n"
        f"  TPC-H Q3 modes : {q3_modes} (paper: bimodal ~14B and ~32B)"
    )
    write_csv(results_path("fig02_kv_sizes.csv"), ["workload", "size_bytes", "count"],
              [["aggregate", s, c] for s, c in sorted(agg_hist.items())]
              + [["tpch_q3", s, c] for s, c in sorted(q3_hist.items())])

    # shape assertions
    top_share_agg = agg_modes[0][1] / sum(agg_hist.values())
    assert top_share_agg > 0.5, "AGGREGATE pair sizes should be centralized"
    distinct_q3 = {size for size, _ in top_modes(q3_hist, 2)}
    assert len(distinct_q3) >= 2, "Q3 should show multiple size modes"
