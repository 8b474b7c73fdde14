"""--compare verdicts."""

from hostbench import compare


def test_verdict_applies_the_bound_to_the_worse_direction():
    base = [1.00, 1.01, 1.02, 0.99]
    assert compare.verdict(base, [1.05, 1.06, 1.04, 1.05], "lower", 0.10) == "ok"
    assert compare.verdict(base, [1.20, 1.21, 1.19, 1.2], "lower", 0.10) == "REGRESSION"
    # higher is better: a drop beyond the bound regresses, a rise never does
    assert compare.verdict(base, [0.80, 0.81, 0.79, 0.8], "higher", 0.10) == "REGRESSION"
    assert compare.verdict(base, [1.50, 1.51, 1.49, 1.5], "higher", 0.10) == "ok"


def test_verdict_is_unresolved_when_spread_exceeds_the_bound_or_n_is_one():
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9]
    assert compare.verdict(noisy, [1.0, 1.0, 1.0], "lower", 0.10) == "unresolved"
    assert compare.verdict([1.0], [1.0, 1.0], "lower", 0.10) == "unresolved"


def test_exact_differences_pairs_runs_and_skips_timings():
    def record(events, wall):
        return {"workload": "w", "seed": 1, "trace": 1, "smoke": False,
                "failed": 0, "metrics": {
                    "simulate.events_scheduled": {"value": events, "unit": "count"},
                    "exec.map_s": {"value": wall, "unit": "s"}}}

    compared, lines = compare.exact_differences([record(10, 0.1)], [record(10, 0.2)])
    assert (compared, lines) == (2, [])
    compared, lines = compare.exact_differences([record(10, 0.1)], [record(11, 0.1)])
    assert len(lines) == 1 and "simulate.events_scheduled 10 -> 11" in lines[0]
