"""One workload measured in this process; ``run.py`` starts it fresh.

Untraced mode: three rounds of set-up (``setup_s`` is their median)
followed by timed passes for a third of the budget.  Traced mode: set up
once, run the traced passes with the seam wrappers installed, remove
them, time untraced passes for the overhead ratio, then run the micro
loops.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # started as a script: the script directory would shadow the stdlib
    # ``trace`` module, so import hostbench as a package from the root
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from hostbench import micro, trace, workloads  # noqa: E402

SETUP_REPEATS = 3
TRACED_PASSES = 3
MIN_UNTRACED = 3  # untraced passes of a traced run (overhead, drift)

#: per-layer self-time metric -> span name
SELF_TIME = {
    "sql.parse_s": "sql.parse",
    "plan.compile_s": "plan.compile",
    "storage.scan_s": "storage.scan",
    "storage.write_s": "storage.write",
    "exec.map_build_s": "exec.map_build",
    "exec.map_s": "exec.map",
    "exec.reduce_s": "exec.reduce",
    "engines.collect_s": "engines.collect",
    "engines.sim_self_s": "sim.run",
    "simulate.lease_s": "simulate.lease",
    "sched.submit_s": "sched.submit",
}
#: inclusive: an engine-specific change moves its own leg only
RUN_PLAN = {
    f"engines.run_plan_s.{engine}": f"engine.run_plan.{engine}"
    for engine in ("hadoop", "datampi", "llap")
}
COUNTS = (
    "sql.statements", "plan.compiles",
    "storage.scan_calls", "storage.scan_rows", "storage.scan_bytes",
    "storage.rows_skipped", "storage.write_rows", "storage.write_bytes",
    "exec.map_tasks", "exec.map_rows", "exec.map_kv_pairs",
    "exec.map_kv_bytes", "exec.reduce_calls", "exec.reduce_pairs",
    "exec.reduce_rows_out", "engines.collect_pairs",
    "simulate.events_scheduled", "simulate.events_cancelled",
    "simulate.lease_ops", "sched.submitted", "sched.rejected",
    "sched.deadline_misses", "sched.latency_p50_sim_s",
    "sched.latency_p99_sim_s", "sched.queue_depth_peak",
)
UNITS = {
    "wall_s": "s", "cpu_s": "s", "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB", "setup_s": "s", "sim_seconds": "sim_s",
    "failed_share": "ratio",
    "storage.scan_rows": "rows", "storage.rows_skipped": "rows",
    "storage.write_rows": "rows", "exec.map_rows": "rows",
    "exec.reduce_rows_out": "rows", "storage.scan_bytes": "bytes",
    "storage.write_bytes": "bytes", "exec.map_kv_bytes": "bytes",
    "simulate.events_per_wall_s": "1/s",
    "sched.latency_p50_sim_s": "sim_s", "sched.latency_p99_sim_s": "sim_s",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


class Totals:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed


def _one_pass(workload, state, totals: Totals, recorder=None):
    """Run and check one pass; returns (wall, cpu, outcome)."""
    gc.collect()  # untimed: a pass does not pay for its predecessor's garbage
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    if recorder is None:
        raw = workload.execute(state)
    else:
        with recorder.span(trace.ROOT):
            raw = workload.execute(state)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu_start
    outcome = workload.check(state, raw)
    totals.add(outcome)
    return wall, cpu, outcome


def _set_up(workload, seed: int, smoke: bool, totals: Totals):
    """Dataset + load + DDL + oracle + one warm-up pass."""
    start = time.perf_counter()
    state = workload.build(seed, smoke)
    workload.oracle(state)
    _one_pass(workload, state, totals)
    return state, time.perf_counter() - start


def _timed_passes(workload, state, seconds: float, minimum: int,
                  totals: Totals) -> List[Tuple[float, float, object]]:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < minimum or time.perf_counter() < deadline:
        passes.append(_one_pass(workload, state, totals))
    return passes


def _quartiles(values: List[float]) -> Dict[str, float]:
    detail = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        detail.update(q1=q1, q3=q3)
    if len(values) >= 20:
        # the highest percentile with at least ten samples beyond it
        percentile = int(100 * (1 - 10 / len(values)))
        ordered = sorted(values)
        detail[f"p{percentile}"] = ordered[len(values) - 11]
    return detail


def measure_untraced(workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Rounds of set-up followed by timed passes on the fresh warehouse.

    Interleaving spreads the timed passes over the whole run, so a burst
    of host contention (seconds long on a shared sandbox) cannot cover
    all of them."""
    totals = Totals()
    rounds = 1 if smoke else SETUP_REPEATS
    setups = []
    passes = []
    state = None
    for _ in range(rounds):
        state = None  # the previous warehouse is garbage before the next
        state, elapsed = _set_up(workload, seed, smoke, totals)
        setups.append(elapsed)
        passes += _timed_passes(workload, state, seconds / rounds, 1, totals)
    walls = [wall for wall, _, _ in passes]
    # the fastest pass: host speed drifts in bursts, and a pass can be
    # slowed by the host but never sped up (README.md, "Steadiness")
    wall = min(walls)
    rows_read = passes[0][2].rows_read
    metrics = {
        "wall_s": wall,
        "cpu_s": min(cpu for _, cpu, _ in passes),
        "rows_per_s": rows_read / wall,
        "sim_seconds": passes[0][2].sim_seconds,
        "peak_rss_mb": _peak_rss_mib(),
        "setup_s": statistics.median(setups),
        "failed_share": totals.failed / totals.attempted,
    }
    return {
        "passes": len(passes),
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
        "detail": {"wall_s": _quartiles(walls), "setup_s": _quartiles(setups),
                   "rows_read_per_pass": rows_read},
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_traced(workload, seed: int, seconds: float, smoke: bool,
                   trace_out: str) -> dict:
    totals = Totals()
    state, _ = _set_up(workload, seed, smoke, totals)
    recorder = trace.Recorder()
    traced = []
    with trace.installed(recorder):
        for pass_id in range(1 if smoke else TRACED_PASSES):
            recorder.start_pass(pass_id)
            traced.append(_one_pass(workload, state, totals, recorder))
    untraced = _timed_passes(
        workload, state, seconds / 2, 1 if smoke else MIN_UNTRACED, totals)

    self_times = recorder.self_times()
    durations = recorder.durations()
    for pass_id, (wall, _, _) in enumerate(traced):
        total = sum(self_times[pass_id].values())
        if abs(total - wall) > 0.05 * wall:
            raise RuntimeError(
                f"pass {pass_id}: self times sum to {total:.4f}s but the "
                f"pass took {wall:.4f}s")

    def median_of(per_pass) -> float:
        return statistics.median(per_pass(p) for p in range(len(traced)))

    metrics: Dict[str, float] = {}
    for metric, span in SELF_TIME.items():
        metrics[metric] = median_of(lambda p: self_times[p].get(span, 0.0))
    for metric, span in RUN_PLAN.items():
        metrics[metric] = median_of(lambda p: durations[p].get(span, 0.0))
    # what the seams above do not cover: session set-up, driver glue,
    # ``run_plan`` outside the simulator
    metrics["core.other_self_s"] = median_of(
        lambda p: durations[p][trace.ROOT]
        - sum(self_times[p].get(span, 0.0) for span in SELF_TIME.values()))

    def count(name: str) -> float:
        return median_of(lambda p: recorder.counts[p].get(name, 0)
                         + traced[p][2].counts.get(name, 0))

    for name in COUNTS:
        metrics[name] = count(name)
    metrics["core.result_cache_hit_ratio"] = _ratio(
        count("core.result_cache_hits"),
        count("core.result_cache_hits") + count("core.result_cache_misses"))
    metrics["storage.llap_cache_hit_ratio"] = _ratio(
        count("storage.llap_cache_hits"),
        count("storage.llap_cache_hits") + count("storage.llap_cache_misses"))
    metrics["exec.vectorized_task_ratio"] = _ratio(
        count("exec.vectorized_tasks"), count("exec.vectorizable_tasks"))
    metrics["simulate.events_per_wall_s"] = _ratio(
        metrics["simulate.events_scheduled"], metrics["engines.sim_self_s"])
    metrics["sim_seconds"] = traced[0][2].sim_seconds

    walls = [wall for wall, _, _ in untraced]
    third = max(1, len(walls) // 3)
    metrics["core.pass_drift_ratio"] = (
        statistics.median(walls[-third:]) / statistics.median(walls[:third]))
    # fastest against fastest, as for wall_s
    metrics["trace.overhead_ratio"] = (
        min(wall for wall, _, _ in traced) / min(walls))
    metrics.update(micro.run(seed, 0.1 if smoke else micro.LOOP_SECONDS))

    if trace_out:
        recorder.write_jsonl(trace_out)
    return {
        "passes": len(untraced),
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
        "detail": {"wall_s": _quartiles(walls), "spans": len(recorder.spans)},
    }


def main(argv: List[str]) -> int:
    name, seed, seconds, traced, smoke, trace_out = json.loads(argv[0])
    workload = workloads.all_workloads()[name]
    if traced:
        record = measure_traced(workload, seed, seconds, smoke, trace_out)
    else:
        record = measure_untraced(workload, seed, seconds, smoke)
    record["metrics"] = {
        metric: {"value": value, "unit": unit_of(metric)}
        for metric, value in record["metrics"].items()
    }
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(traced),
                  smoke=smoke, why=workload.why, input=workload.input_size)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
