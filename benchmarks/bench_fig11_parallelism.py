"""Fig 11 — TPC-H 40 GB ORC breakdown: default vs enhanced parallelism.

Paper (§IV-D, §V-C):

* enhanced parallelism (#A = #O, last stage 1) improves Hadoop by ~14 %
  and DataMPI by ~23 % on average;
* Q9 improves ~42 % (Hadoop) / ~56 % (DataMPI) because higher reduce
  parallelism spreads its skewed keys (default 16 A tasks saw a 13x
  max/min record skew; 28 A tasks only ~4x);
* queries like Q1/Q6/Q11/Q14 barely change (their stages already run at
  the same parallelism);
* with enhanced on both sides, DataMPI beats Hadoop by ~29 % on average.
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_tpch, improvement_percent, run_script
from repro.reporting.figures import write_csv
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_query

SF = 40
SAMPLE = 5000
CASES = [("hadoop", "default", "h"), ("hadoop", "enhanced", "H"),
         ("datampi", "default", "d"), ("datampi", "enhanced", "D")]


def _reduce_skew(run):
    """Load skew on the biggest-shuffle job: (max/mean bytes per reduce
    task, max bytes, #reducers).  The paper's §IV-D anecdote is the same
    phenomenon: more A tasks spread the skewed keys, shrinking the
    heaviest task's share (13x max/min at 16 tasks -> 4x at 28)."""
    biggest = None
    for result in run.results:
        if result.execution is None:
            continue
        for job in result.execution.jobs:
            if biggest is None or job.shuffle_logical_bytes > biggest.shuffle_logical_bytes:
                biggest = job
    if biggest is None:
        return 1.0, 0.0, 0
    reducers = [t for t in biggest.tasks if t.kind in ("reduce", "a")]
    loads = [t.kv_bytes for t in reducers]
    if not loads or sum(loads) == 0:
        return 1.0, 0.0, 0
    mean = sum(loads) / len(loads)
    return max(loads) / mean, max(loads), biggest.num_reducers


def _experiment():
    hdfs, metastore = fresh_tpch(SF, lineitem_sample=SAMPLE, format_name="orc")
    table = {tag: [] for _e, _m, tag in CASES}
    q9_skew = {}
    for query in TPCH_QUERY_IDS:
        script = tpch_query(query, SF)
        for engine, mode, tag in CASES:
            run = run_script(engine, hdfs, metastore, script,
                             conf={"hive.datampi.parallelism": mode})
            table[tag].append(run.breakdown.total)
            if query == 9:
                q9_skew[(engine, mode)] = _reduce_skew(run)
    return table, q9_skew


def test_fig11_parallelism_strategies():
    table, q9_skew = _experiment()

    header = "case " + "".join(f"{'Q%d' % q:>9}" for q in TPCH_QUERY_IDS)
    lines = ["== Fig 11: default(h/d) vs enhanced(H/D), 40 GB ORC (seconds) ==",
             header, "-" * len(header)]
    for tag in ("h", "H", "d", "D"):
        lines.append(f"{tag:<5}" + "".join(f"{v:>9.1f}" for v in table[tag]))
    emit("\n".join(lines))
    write_csv(results_path("fig11_parallelism.csv"),
              ["case"] + [f"q{q}" for q in TPCH_QUERY_IDS],
              [[tag] + [round(v, 2) for v in table[tag]] for tag in table])

    avg = lambda xs: sum(xs) / len(xs)
    hadoop_gain = [improvement_percent(h, H) for h, H in zip(table["h"], table["H"])]
    datampi_gain = [improvement_percent(d, D) for d, D in zip(table["d"], table["D"])]
    cross = [improvement_percent(H, D) for H, D in zip(table["H"], table["D"])]
    emit(f"enhanced gain: Hadoop {avg(hadoop_gain):.1f}% (paper ~14%), "
         f"DataMPI {avg(datampi_gain):.1f}% (paper ~23%)")
    emit(f"DataMPI over Hadoop (both enhanced): {avg(cross):.1f}% (paper ~29%)")

    q9_index = TPCH_QUERY_IDS.index(9)
    q9_h = improvement_percent(table["h"][q9_index], table["H"][q9_index])
    q9_d = improvement_percent(table["d"][q9_index], table["D"][q9_index])
    emit(f"Q9 enhanced gain: Hadoop {q9_h:.1f}% (paper ~42%), DataMPI {q9_d:.1f}% (paper ~56%)")
    for (engine, mode), (ratio, max_load, reducers) in sorted(q9_skew.items()):
        emit(f"Q9 {engine}/{mode}: heaviest reduce task {max_load / 2**20:.0f} MB "
             f"({ratio:.2f}x the mean) across {reducers} reduce tasks "
             "(paper: 13x max/min at 16 tasks -> 4x at 28)")

    # shape assertions
    assert avg(hadoop_gain) > 5.0 and avg(datampi_gain) > 5.0
    assert q9_h > 20.0 and q9_d > 25.0, "Q9 must benefit strongly"
    assert avg(cross) > 15.0
    flat = [TPCH_QUERY_IDS.index(q) for q in (1, 6, 14)]
    for index in flat:
        assert abs(improvement_percent(table["d"][index], table["D"][index])) < 25.0, \
            f"Q{TPCH_QUERY_IDS[index]} should not change much under enhanced mode"
    default_max = q9_skew[("datampi", "default")][1]
    enhanced_max = q9_skew[("datampi", "enhanced")][1]
    assert enhanced_max <= default_max, \
        "more A tasks must shrink the heaviest task's load"
