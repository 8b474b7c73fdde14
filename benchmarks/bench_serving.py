"""Traffic-at-scale serving benchmark: open-loop arrivals per policy.

Generates the same seeded open-loop arrival schedule (bursty process,
Zipf-skewed popularity over the read-only HiBench mix, thousands of
client sessions spread over scheduler pools) and replays it against a
fresh shared cluster under each admission policy.  Reported per policy:

* **p50/p95/p99 submit-to-finish latency** (simulated seconds);
* **queue depth over time** (peak, mean, decimated series);
* **rejection rate** — arrivals bounced by pool admission control;
* **deadline-miss rate** — queries past their submit-relative budget.

The run offers >=10k queries to a 101-node simulated cluster and
regenerates ``results/BENCH_serving.json``.
"""

from benchhelpers import emit, write_report

from repro import connect
from repro.common.config import (
    HEARTBEAT_ENABLED,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.sched import POLICIES
from repro.workloads.serving import (
    ServingConfig,
    generate_arrivals,
    load_serving_warehouse,
    run_serving,
)

ENGINE = "llap"  # the serving engine: daemons + caches soak up repeats
NUM_WORKERS = 100  # +1 master node
POOL_WEIGHTS = {"bi": 3.0, "etl": 1.0, "adhoc": 2.0}
POOLS = ("bi:weight=3,cap=24,queue=256; etl:weight=1,cap=8,queue=48; "
         "adhoc:weight=2,cap=16,queue=96")
CONFIG = ServingConfig(
    num_queries=4000, num_sessions=2000, process="bursty", rate=8.0,
    burst_factor=3.0, burst_fraction=0.25, burst_cycle=60.0,
    zipf_s=1.1, pool_weights=POOL_WEIGHTS,
    deadline=60.0, deadline_fraction=0.15, seed=11,
)


def run_policy(policy: str, arrivals):
    conf = {
        HEARTBEAT_ENABLED: False,  # 1 tick x 100 workers adds nothing here
        SCHED_POLICY: policy,
        SCHED_POOLS: POOLS,
        SCHED_MAX_CONCURRENT: 48,
    }
    with connect(engine=ENGINE, num_workers=NUM_WORKERS, conf=conf) as session:
        load_serving_warehouse(session.hdfs, session.metastore,
                               nominal_gb=2.0, sample_uservisits=4000)
        return run_serving(session, arrivals)


def _experiment():
    arrivals = generate_arrivals(CONFIG)
    report = {
        "engine": ENGINE,
        "nodes": NUM_WORKERS + 1,
        "offered_per_policy": CONFIG.num_queries,
        "sessions": CONFIG.num_sessions,
        "arrival_process": CONFIG.process,
        "mean_rate_qps": CONFIG.rate,
        "zipf_s": CONFIG.zipf_s,
        "policies": {},
    }
    for policy in POLICIES:
        report["policies"][policy] = run_policy(policy, arrivals).to_dict()
    return report


def test_serving_report():
    report = _experiment()
    write_report("BENCH_serving.json", report)

    lines = [f"{'policy':>10} {'p50':>8} {'p95':>8} {'p99':>8} "
             f"{'qpeak':>6} {'rej%':>6} {'miss%':>6} {'qps':>8}"]
    for policy, cell in report["policies"].items():
        lines.append(f"{policy:>10} {cell['latency_p50']:>8.2f} "
                     f"{cell['latency_p95']:>8.2f} {cell['latency_p99']:>8.2f} "
                     f"{cell['queue_depth_peak']:>6d} "
                     f"{100 * cell['rejection_rate']:>6.2f} "
                     f"{100 * cell['deadline_miss_rate']:>6.2f} "
                     f"{cell['throughput_qps']:>8.2f}")
    emit("\n".join(lines))

    cells = report["policies"].values()
    assert sum(cell["offered"] for cell in cells) >= 10_000
    assert sum(cell["succeeded"] for cell in cells) > 0
    for policy, cell in report["policies"].items():
        assert cell["latency_p99"] is not None, f"{policy} has no latency percentiles"
