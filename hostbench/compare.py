"""``run.py --compare A.jsonl [B.jsonl]``: medians, quartiles, verdicts.

One row per workload x end-to-end metric.  With one file the row shows
the run-to-run spread (interquartile distance over the median) against
the metric's bound from BENCHMARK.json; with two, B's median over A's
(the base) and a verdict.  Simulated seconds and every count are
compared exactly, run by run, pairing records on workload, seed and
mode.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

EXACT_UNITS = ("count", "rows", "bytes", "sim_s")


def load(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarize(values: List[float]) -> Tuple[float, Optional[float], Optional[float]]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: List[float]) -> Optional[float]:
    median, q1, q3 = summarize(values)
    if q1 is None or median == 0:
        return None
    return (q3 - q1) / abs(median)


def _series(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): values}`` over the untraced records."""
    series: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        if not record["trace"]:
            for name, cell in record["metrics"].items():
                series[record["workload"], name].append(cell["value"])
    return series


def _cell(values: List[float]) -> str:
    median, q1, q3 = summarize(values)
    if q1 is None:
        return f"{median:.5g} (n=1)"
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> str:
    """``ok`` / ``REGRESSION`` / ``unresolved`` for one metric."""
    spreads = [spread(base), spread(change)]
    if any(value is None or value > bound for value in spreads):
        return "unresolved"
    a, b = statistics.median(base), statistics.median(change)
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    return "REGRESSION" if worse_by > bound else "ok"


def exact_differences(base: List[dict], change: List[dict]) -> Tuple[int, List[str]]:
    """Compare simulated seconds, counts and failures run by run."""
    keyed = {(r["workload"], r["seed"], r["trace"]): r for r in base}
    compared = 0
    lines = []
    for record in change:
        key = (record["workload"], record["seed"], record["trace"])
        other = keyed.get(key)
        if other is None or other["smoke"] != record["smoke"]:
            continue
        pairs = [("failed", other["failed"], record["failed"])]
        for name, cell in record["metrics"].items():
            if cell["unit"] in EXACT_UNITS and name in other["metrics"]:
                pairs.append((name, other["metrics"][name]["value"],
                              cell["value"]))
        for name, before, after in pairs:
            compared += 1
            if before != after:
                lines.append(
                    f"{key[0]} seed {key[1]} {'traced' if key[2] else 'untraced'}"
                    f": {name} {before!r} -> {after!r}")
    return compared, lines


def main(paths: List[str], spec: dict) -> int:
    if len(paths) > 2:
        raise SystemExit("--compare takes one or two files")
    base = load(paths[0])
    change = load(paths[1]) if len(paths) == 2 else None
    base_series = _series(base)
    change_series = _series(change) if change is not None else {}
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = base_series.get((workload, name))
            if not a:
                continue
            row = f"{workload:22s} {name:12s} {metric['unit']:7s} A {_cell(a)}"
            if change is None:
                value = spread(a)
                shown = "n/a" if value is None else f"{value:.4f}"
                steady = value is not None and value <= bound / 3
                row += (f"  spread {shown} vs bound {bound:g}"
                        f"{'' if steady else '  UNSTEADY (> bound/3)'}")
            else:
                b = change_series.get((workload, name))
                if not b:
                    continue
                base_median = statistics.median(a)
                outcome = verdict(a, b, metric["better"], bound)
                row += (f"  B {_cell(b)}  B/A "
                        f"{statistics.median(b) / base_median:.4f} "
                        f"(base {base_median:.5g})  bound {bound:g}  {outcome}")
                if outcome == "REGRESSION":
                    status = 1
            print(row)
    if change is not None:
        compared, lines = exact_differences(base, change)
        print(f"exact (sim_seconds, counts, failures): {compared} compared, "
              f"{len(lines)} differ")
        for line in lines:
            print("  " + line)
        if lines:
            status = 1
    return status
