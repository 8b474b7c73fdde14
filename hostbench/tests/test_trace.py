"""Span recorder: self time on synthetic trees, wrapper install/removal."""

import pytest

from hostbench import trace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_covered_children():
    clock = FakeClock()
    recorder = trace.Recorder(clock)
    # pass [0, 10]: a [1, 4] holding b [2, 3]; then c [6, 9]
    recorder.start_pass(7)
    root = recorder.open("pass")
    clock.now = 1.0
    a = recorder.open("a")
    clock.now = 2.0
    b = recorder.open("b")
    clock.now = 3.0
    recorder.close(b)
    clock.now = 4.0
    recorder.close(a)
    clock.now = 6.0
    c = recorder.open("c")
    clock.now = 9.0
    recorder.close(c)
    clock.now = 10.0
    recorder.close(root)

    times = recorder.self_times()[7]
    assert times == {"pass": 4.0, "a": 2.0, "b": 1.0, "c": 3.0}
    assert sum(times.values()) == 10.0  # self times add up to the pass
    assert recorder.durations()[7]["a"] == 3.0
    assert [span[trace.PARENT] for span in recorder.spans] == [-1, 0, 1, 0]


def test_same_name_spans_sum_and_passes_stay_apart():
    clock = FakeClock()
    recorder = trace.Recorder(clock)
    for pass_id in (0, 1):
        recorder.start_pass(pass_id)
        for _ in range(2):
            with recorder.span("scan"):
                clock.now += 1.5
            recorder.count("rows", 10)
    assert recorder.self_times() == {0: {"scan": 3.0}, 1: {"scan": 3.0}}
    assert recorder.counts[0]["rows"] == recorder.counts[1]["rows"] == 20


def test_covered_takes_the_union_clipped_to_the_parent():
    assert trace._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == 3.5
    assert trace._covered([], 0.0, 1.0) == 0.0


def test_close_out_of_order_is_an_error():
    recorder = trace.Recorder(FakeClock())
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_sibling_delegation_is_recorded_once():
    recorder = trace.Recorder(FakeClock())
    calls = []

    def scan(n):
        calls.append("scan")
        return n

    def after(rec, args, kwargs, result, error):
        rec.count("calls")

    wrapped_scan = trace._spanned(recorder, "storage.scan", scan, after)

    def scan_batch(n):  # a public method delegating to its sibling
        return wrapped_scan(n)

    wrapped_batch = trace._spanned(recorder, "storage.scan", scan_batch, after)
    assert wrapped_batch(3) == 3
    assert calls == ["scan"]
    assert len(recorder.spans) == 1
    assert recorder.counts[0]["calls"] == 1


def test_wrapper_reports_errors_and_reraises():
    recorder = trace.Recorder(FakeClock())
    seen = []

    def boom():
        raise ValueError("x")

    wrapped = trace._spanned(
        recorder, "boom", boom,
        lambda rec, args, kwargs, result, error: seen.append(error))
    with pytest.raises(ValueError):
        wrapped()
    assert isinstance(seen[0], ValueError)
    assert recorder.current() is None  # the span was closed


def test_wrappers_are_installed_then_removed():
    targets = [(owner, name) for owner, name, _ in trace._seams(trace.Recorder())]
    assert len(targets) >= 30
    before = [vars(owner).get(name) for owner, name in targets]
    with trace.installed(trace.Recorder()):
        for owner, name in targets:
            assert hasattr(vars(owner)[name], "__wrapped__"), (owner, name)
    after = [vars(owner).get(name) for owner, name in targets]
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(value, "__wrapped__") for value in after)


def test_wrappers_are_removed_when_the_block_raises():
    from repro.simulate.events import Simulator

    original = Simulator.run
    with pytest.raises(KeyError):
        with trace.installed(trace.Recorder()):
            assert Simulator.run is not original
            raise KeyError("stop")
    assert Simulator.run is original


def test_traced_query_counts_each_layer_once():
    import repro

    recorder = trace.Recorder()
    hdfs, metastore = repro.make_warehouse()
    with repro.connect(engine="local", hdfs=hdfs, metastore=metastore) as session:
        session.execute("CREATE TABLE t (k int, v string) STORED AS ORC;")
    from repro.common.rows import Schema

    table = metastore.get_table("t")
    hdfs.write(f"{table.location}/part-0", Schema.parse("k int, v string"),
               [(i % 3, f"v{i}") for i in range(30)])
    with trace.installed(recorder):
        with recorder.span(trace.ROOT):
            with repro.connect(engine="datampi", hdfs=hdfs,
                               metastore=metastore) as session:
                rows = session.query("SELECT k, count(*) FROM t GROUP BY k").rows
    assert sorted(rows) == [(0, 10), (1, 10), (2, 10)]
    counts = recorder.counts[0]
    assert counts["sql.statements"] == 1
    assert counts["plan.compiles"] == 1
    assert counts["storage.scan_rows"] == 30 == counts["exec.map_rows"]
    assert counts["exec.map_kv_pairs"] == counts["engines.collect_pairs"]
    assert counts["exec.reduce_pairs"] == counts["exec.map_kv_pairs"]
    assert counts["exec.reduce_rows_out"] == 3
    assert counts["simulate.events_scheduled"] > 0
    times = recorder.self_times()[0]
    root = recorder.durations()[0][trace.ROOT]
    assert abs(sum(times.values()) - root) < 1e-9
    assert {"sql.parse", "plan.compile", "sim.run", "exec.map",
            "exec.reduce", "engine.run_plan.datampi"} <= set(times)
