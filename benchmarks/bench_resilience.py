"""Resilience — the cost of recovery: DataMPI gang restart vs MapReduce
task re-execution under identical seeded fault plans.

The paper's speedups come from replacing the MapReduce runtime with an
MPI-style communication world, but that world is also a shared failure
domain: Hadoop re-runs only the attempt that died, while DataMPI must
abort the gang and resubmit the job.  This benchmark injects the same
fault plan into both engines and reports the fraction of job time lost
to recovery — correctness is identical (byte-identical rows), the
difference is purely time.
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_hibench, run_script
from repro.common.config import FAULT_SPEC, RETRY_BACKOFF, RETRY_MAX
from repro.reporting.figures import write_csv

QUERY = "SELECT sourceip, SUM(adrevenue) FROM uservisits GROUP BY sourceip"
RATES = [0.0, 0.05, 0.15, 0.30]
ENGINES = ["hadoop", "datampi"]


def _run(engine, hdfs, metastore, rate):
    conf = {RETRY_MAX: 10, RETRY_BACKOFF: 0.5}
    if rate:
        conf[FAULT_SPEC] = f"seed:11; fail:{rate}"
    return run_script(
        engine, hdfs, metastore, QUERY, label=f"{engine}-f{rate:g}", conf=conf
    )


def _experiment():
    hdfs, metastore = fresh_hibench(20, sample_uservisits=16000)
    table = {}
    for engine in ENGINES:
        clean_rows = None
        for rate in RATES:
            run = _run(engine, hdfs, metastore, rate)
            result = run.results[-1]
            rows = sorted(result.rows)
            if clean_rows is None:
                clean_rows = rows
            assert rows == clean_rows, (engine, rate, "rows diverged under faults")
            execution = result.execution
            table[(engine, rate)] = {
                "seconds": run.simulated_seconds,
                "attempts": result.attempts,
                "failed": sum(job.failed_attempts for job in execution.jobs),
                "restarts": result.restarts,
            }
    return table


def test_resilience_under_identical_faults():
    table = _experiment()

    rows = []
    overhead = {}
    for engine in ENGINES:
        base = table[(engine, 0.0)]["seconds"]
        for rate in RATES:
            cell = table[(engine, rate)]
            lost = (cell["seconds"] - base) / base
            overhead[(engine, rate)] = lost
            rows.append(
                [engine, rate, round(cell["seconds"], 2), round(100 * lost, 1),
                 cell["attempts"], cell["failed"], cell["restarts"]]
            )
    write_csv(results_path("resilience.csv"),
              ["engine", "fail_rate", "seconds", "time_lost_pct",
               "attempts", "failed_attempts", "restarts"], rows)

    emit(f"{'engine':>8} {'rate':>5} {'seconds':>9} {'lost%':>6} "
         f"{'attempts':>8} {'failed':>6} {'restarts':>8}")
    for engine, rate, seconds, lost, attempts, failed, restarts in rows:
        emit(f"{engine:>8} {rate:>5.2f} {seconds:>9.2f} {lost:>6.1f} "
             f"{attempts:>8} {failed:>6} {restarts:>8}")

    # shape assertions: both engines pay for faults, and the gang-scheduled
    # engine loses a larger fraction of job time than task-level retry does
    for rate in RATES[1:]:
        assert table[("hadoop", rate)]["failed"] > 0, ("no faults fired", rate)
        assert table[("datampi", rate)]["restarts"] > 0, ("no gang restart", rate)
    moderate = RATES[-1]
    assert overhead[("datampi", moderate)] > overhead[("hadoop", moderate)]
    assert overhead[("hadoop", moderate)] > 0
