"""Shared harness for the paper-reproduction benchmarks.

Each ``benchmarks/bench_*.py`` regenerates one table/figure by calling
into this module: dataset builders at laptop-scale sampling, script
runners that execute on a named engine, and breakdown collectors.

Simulated seconds (the numbers compared against the paper) are entirely
decoupled from wall-clock: the same benchmark runs in seconds on a
laptop while modeling the paper's 5-40 GB datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import connect
from repro.common.config import Configuration
from repro.core.driver import Driver, QueryResult
from repro.reporting.breakdown import QueryBreakdown, breakdown_query
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore
from repro.workloads.hibench import hibench_ddl, load_hibench
from repro.workloads.tpch import load_tpch


@dataclass
class ScriptRun:
    """One script executed on one engine."""

    engine: str
    results: List[QueryResult]
    breakdown: QueryBreakdown
    metrics: List[object] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        return sum(result.simulated_seconds for result in self.results)


def fresh_hibench(
    nominal_gb: float,
    sample_uservisits: int = 16000,
    format_name: str = "sequence",
    num_workers: int = 7,
    seed: int = 1425,
) -> Tuple[HDFS, Metastore]:
    """A new warehouse holding the HiBench tables at *nominal_gb*."""
    hdfs = HDFS(num_workers=num_workers)
    metastore = Metastore(hdfs)
    load_hibench(
        hdfs, metastore, nominal_gb,
        sample_uservisits=sample_uservisits, format_name=format_name, seed=seed,
    )
    return hdfs, metastore


def fresh_tpch(
    sf: float,
    lineitem_sample: int = 6000,
    format_name: str = "text",
    num_workers: int = 7,
    seed: int = 19920101,
) -> Tuple[HDFS, Metastore]:
    """A new warehouse holding TPC-H at scale factor *sf*."""
    hdfs = HDFS(num_workers=num_workers)
    metastore = Metastore(hdfs)
    load_tpch(
        hdfs, metastore, sf,
        lineitem_sample=lineitem_sample, format_name=format_name, seed=seed,
    )
    return hdfs, metastore


def run_script(
    engine: str,
    hdfs: HDFS,
    metastore: Metastore,
    script: str,
    label: str = "query",
    conf: Optional[Dict[str, object]] = None,
    with_metrics: bool = False,
) -> ScriptRun:
    """Execute *script* on *engine*; returns results + breakdown."""
    configuration = Configuration()
    for key, value in (conf or {}).items():
        configuration.set(key, value)
    driver: Driver = connect(
        engine=engine, hdfs=hdfs, metastore=metastore, conf=configuration
    )
    results = driver.execute(script, with_metrics=with_metrics)
    metrics: List[object] = []
    for result in results:
        if result.execution is not None:
            metrics.extend(result.execution.metrics)
    return ScriptRun(
        engine=engine,
        results=results,
        breakdown=breakdown_query(label, results),
        metrics=metrics,
    )


def run_hibench_query(
    engine: str,
    hdfs: HDFS,
    metastore: Metastore,
    which: str,
    conf: Optional[Dict[str, object]] = None,
) -> ScriptRun:
    """Run HiBench AGGREGATE or JOIN (with output-table DDL) on *engine*.

    DDL time (table creation) is excluded from the breakdown, matching
    HiBench's timing of only the INSERT query.
    """
    from repro.workloads.hibench import HIBENCH_AGGREGATE, HIBENCH_JOIN

    query = {"aggregate": HIBENCH_AGGREGATE, "join": HIBENCH_JOIN}[which.lower()]
    run_script(engine, hdfs, metastore, hibench_ddl(), label="ddl", conf=conf)
    return run_script(
        engine, hdfs, metastore, query, label=f"hibench-{which}", conf=conf
    )


def improvement_percent(baseline: float, contender: float) -> float:
    """The paper's improvement metric: how much faster the contender is."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - contender) / baseline
