"""Chaos benchmark: availability and recovery under randomized faults.

Runs the seeded chaos harness (:mod:`repro.simulate.chaos`) across many
distinct fault + membership schedules on the three cluster engines and
reports, per engine:

* **schedules** — how many seeded schedules ran (every one must pass
  all four chaos invariants: oracle-identical rows, balanced lease
  ledger, coherent caches, no stuck query);
* **queries completed / deadline misses** — availability under chaos;
* **mean recovery seconds per fault class** — time from each crash /
  drain / scale-up event to the next query completion;
* **replay** — one schedule per engine is run twice and the reports
  must be identical (determinism).

Regenerates ``results/BENCH_chaos.json``.
"""

from benchhelpers import emit, write_report

from repro.simulate.chaos import (
    CHAOS_QUERIES,
    oracle_rows,
    run_chaos,
    verify_replay,
)

ENGINES = ("hadoop", "datampi", "llap")
CONFIG = {"seeds": 9, "deadline_seed": 4, "replay": True}


def run_engine(engine: str):
    oracle = oracle_rows(engine, CHAOS_QUERIES)
    schedules = []
    completed = 0
    deadline_misses = 0
    recovery = {}
    for seed in range(CONFIG["seeds"]):
        # one seed per engine also carries a tight per-query deadline so
        # the bench exercises the timeout path, not just clean recovery
        deadline = 150.0 if seed == CONFIG["deadline_seed"] else None
        report = run_chaos(engine, seed=seed, deadline=deadline, oracle=oracle)
        completed += report.succeeded
        deadline_misses += report.deadline_misses
        for kind, seconds in report.recovery_seconds.items():
            recovery.setdefault(kind, []).append(seconds)
        schedules.append(report.to_dict())
    verify_replay(engine, seed=1, oracle=oracle)
    return {
        "schedules": len(schedules),
        "queries_completed": completed,
        "queries_total": CONFIG["seeds"] * len(CHAOS_QUERIES),
        "deadline_misses": deadline_misses,
        "mean_recovery_seconds": {
            kind: round(sum(values) / len(values), 3)
            for kind, values in sorted(recovery.items())
        },
        "replay_verified": True,
        "runs": schedules,
    }


def _experiment():
    report = {"config": CONFIG, "workload": list(CHAOS_QUERIES)}
    for engine in ENGINES:
        report[engine] = run_engine(engine)
    return report


def test_chaos_report():
    report = _experiment()
    write_report("BENCH_chaos.json", report)

    lines = [f"{'engine':>9} {'schedules':>10} {'completed':>10} "
             f"{'deadline miss':>14} {'recovery (crash/drain/join)':>28}"]
    for engine in ENGINES:
        cell = report[engine]
        rec = cell["mean_recovery_seconds"]
        rec_text = "/".join(
            f"{rec.get(kind, 0.0):.0f}s" for kind in ("crash", "drain", "scale-up"))
        lines.append(f"{engine:>9} {cell['schedules']:>10} "
                     f"{cell['queries_completed']:>6}/{cell['queries_total']:<3} "
                     f"{cell['deadline_misses']:>14} {rec_text:>28}")
    emit("\n".join(lines))

    assert sum(report[e]["schedules"] for e in ENGINES) >= 25
    for engine in ENGINES:
        cell = report[engine]
        assert cell["queries_completed"] >= cell["queries_total"] - cell["deadline_misses"], \
            f"{engine} left a non-deadline query unfinished"
