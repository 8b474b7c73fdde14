"""Ablation — decomposing DataMPI's advantage (paper §V-B summary).

The paper attributes the speedup to three factors: (1) the light-weight
library design reduces process-management overhead, (2) the efficient
(overlapped) data movement mechanism, (3) efficient MPI communication
with in-memory caching of intermediate data.  This bench turns each
factor off individually and measures how much of the HiBench JOIN win
it carries; a final column shows the paper's future-work DAG mode on
top (stage pipelining without HDFS materialization — §VII.3).
"""

from dataclasses import replace

from benchhelpers import emit, results_path

from repro.bench import fresh_hibench, improvement_percent, run_hibench_query
from repro.core.driver import Driver
from repro.common.config import Configuration
from repro.engines.datampi import DataMPIEngine
from repro.reporting.figures import write_csv
from repro.simulate import CostModel
from repro.workloads.hibench import HIBENCH_JOIN, hibench_ddl


def _run_with(hdfs, metastore, model=None, conf=None):
    engine = DataMPIEngine(hdfs, model=model)
    configuration = Configuration()
    for key, value in (conf or {}).items():
        configuration.set(key, value)
    driver = Driver(hdfs, metastore, engine, conf=configuration)
    driver.execute(hibench_ddl())
    results = driver.execute(HIBENCH_JOIN)
    return sum(r.simulated_seconds for r in results)


def _experiment():
    hdfs, metastore = fresh_hibench(20, sample_uservisits=14000)
    model = CostModel()

    cases = {}
    cases["hadoop"] = run_hibench_query("hadoop", hdfs, metastore, "join").breakdown.total
    cases["datampi (full)"] = _run_with(hdfs, metastore)

    # factor 1 off: give DataMPI Hadoop-grade job control costs
    hadoop = model.hadoop
    heavy = replace(model, datampi=replace(
        model.datampi,
        mpidrun_spawn=hadoop.job_submit,
        process_launch=hadoop.schedule_delay + hadoop.task_jvm_start,
        task_setup=hadoop.schedule_delay + hadoop.task_jvm_start,
    ))
    cases["- light-weight startup"] = _run_with(hdfs, metastore, model=heavy)

    # factor 2 off: no computation/communication overlap
    cases["- overlapped shuffle"] = _run_with(
        hdfs, metastore, conf={"datampi.shuffle.overlap": False}
    )

    # factor 3 off: no in-memory caching of intermediate data (everything
    # spills on the A side)
    cases["- in-memory caching"] = _run_with(
        hdfs, metastore, conf={"hive.datampi.memusedpercent": 0.02}
    )

    # future work: DAG pipelining between stages
    cases["+ DAG pipelining"] = _run_with(
        hdfs, metastore, conf={"hive.datampi.dag": True}
    )
    return cases


def test_ablation_of_datampi_factors():
    cases = _experiment()
    full = cases["datampi (full)"]
    hadoop = cases["hadoop"]
    lines = ["== DataMPI factor ablation (HiBench JOIN, 20 GB; seconds) =="]
    rows = []
    for label, value in cases.items():
        gain = improvement_percent(hadoop, value)
        lines.append(f"  {label:<26} {value:8.1f}  ({gain:+5.1f}% vs hadoop)")
        rows.append([label, round(value, 2), round(gain, 2)])
    emit("\n".join(lines))
    write_csv(results_path("ablation_factors.csv"),
              ["case", "seconds", "gain_vs_hadoop_pct"], rows)

    # each removed factor must cost something; DAG must add on top
    assert cases["- light-weight startup"] > full
    assert cases["- overlapped shuffle"] > full
    assert cases["- in-memory caching"] > full
    assert cases["+ DAG pipelining"] < full
    assert full < hadoop
