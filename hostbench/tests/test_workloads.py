"""The oracle's tolerant row comparison and the arrival generator."""

from collections import Counter

from hostbench import workloads
from hostbench.workloads import rows_match


def test_rows_match_tolerates_ulps_not_values():
    expected = [("a", 0.1 + 0.2, None), ("b", 2.0, 1)]
    assert rows_match(expected, [("a", 0.3, None), ("b", 2.0, 1)])
    assert not rows_match(expected, [("a", 0.3001, None), ("b", 2.0, 1)])
    assert not rows_match(expected, expected[:1])
    swapped = [("b", 2.0, 1), ("a", 0.3, None)]
    assert not rows_match(expected, swapped)
    assert rows_match(expected, swapped, ordered=False)


def test_arrivals_are_seeded_and_open_with_a_full_cold_burst():
    first = workloads.generate_arrivals(3, 500, 100, 8.0)
    assert first == workloads.generate_arrivals(3, 500, 100, 8.0)
    assert first != workloads.generate_arrivals(4, 500, 100, 8.0)
    burst = [a for a in first if a.when == 0.0]
    stream = first[len(burst):]
    # the burst fills every pool exactly to its cap, catalog round-robin
    assert Counter(a.pool for a in burst) == {
        name: cap for name, (_, cap) in workloads.SERVING_POOLS.items()}
    assert len(burst) == workloads.SERVING_MAX_CONCURRENT
    assert {a.query for a in burst} == set(range(len(workloads.SERVING_CATALOG)))
    assert len(stream) == 500
    assert stream[0].when >= workloads.STREAM_START
    assert all(a.when <= b.when for a, b in zip(stream, stream[1:]))
    mean_rate = len(stream) / (stream[-1].when - workloads.STREAM_START)
    assert 6.0 < mean_rate < 10.0
    assert 0.05 < sum(a.deadline is not None for a in stream) / 500 < 0.30


def _tiny_workload(scripts):
    from repro.common.rows import Schema

    def loader(hdfs, metastore, seed, smoke):
        schema = Schema.parse("k int, v double")
        table = metastore.create_table("t", schema, format_name="text")
        hdfs.write(f"{table.location}/part-0", schema,
                   [(i % 4, float(i + seed)) for i in range(40)])

    return workloads.QueryWorkload(
        "tiny", "test", "40 rows", loader,
        [workloads.Leg("datampi", tuple(scripts))],
        setup_sql="CREATE TABLE out (k int, total double);",
        output_tables=("out",))


def test_pass_is_checked_against_the_local_oracle():
    workload = _tiny_workload([
        "SELECT k, sum(v) FROM t GROUP BY k ORDER BY k;",
        "INSERT OVERWRITE TABLE out SELECT k, sum(v) FROM t GROUP BY k;",
    ])
    state = workload.build(seed=2, smoke=False)
    workload.oracle(state)
    outcome = workload.check(state, workload.execute(state))
    assert (outcome.attempted, outcome.failed) == (3, 0)  # 2 scripts + 1 table
    # 2 x 40 table rows, plus the ORDER BY job re-reading the 4 groups
    assert outcome.rows_read == 84 and outcome.sim_seconds > 0

    # a wrong answer is counted, not raised
    script = workload.legs[0].scripts[0]
    state.expected[script][0][0] = (0, -1.0)
    state.expected_tables["out"][0] = (9, 9.0)
    outcome = workload.check(state, workload.execute(state))
    assert (outcome.attempted, outcome.failed) == (3, 2)


def test_a_statement_that_raises_is_counted_not_fatal(capsys):
    workload = _tiny_workload(["SELECT k FROM t ORDER BY k;"])
    state = workload.build(seed=2, smoke=False)
    workload.oracle(state)
    state.metastore.drop_table("t")
    outcome = workload.check(state, workload.execute(state))
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "Traceback" in capsys.readouterr().err
