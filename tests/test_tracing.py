"""Cross-layer tracing: span trees, simulated-time discipline, metrics,
and the Chrome-trace / flat exporters."""

import json

import pytest

from repro import connect
from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    chrome_trace_events,
    flatten_spans,
    get_metrics,
    load_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_spans_csv,
    write_spans_json,
)
from repro.simulate.events import Simulator

QUERY = "SELECT dept, count(*), avg(salary) FROM emp GROUP BY dept"


def traced_query(warehouse, engine):
    hdfs, metastore = warehouse
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
    return session.query(QUERY)


# ---------------------------------------------------------------------------
# Tracer / Span primitives
# ---------------------------------------------------------------------------


class TestTracerPrimitives:
    def test_explicit_parent_nesting(self):
        tracer = Tracer()
        root = tracer.start("query", start=0.0)
        child = tracer.start("job", parent=root, start=1.0, category="job")
        child.finish(4.0)
        root.finish(5.0)
        assert root.children == [child]
        assert tracer.roots == [root]
        assert child.duration == 3.0

    def test_contextmanager_stack(self):
        tracer = Tracer(clock=lambda: 7.0)
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner", kind="x") as inner:
                assert tracer.current is inner
        assert tracer.current is None
        assert outer.children == [inner]
        assert inner.attributes["kind"] == "x"

    def test_clock_drives_default_times(self):
        clock = {"t": 2.5}
        tracer = Tracer(clock=lambda: clock["t"])
        span = tracer.start("s")
        clock["t"] = 9.0
        tracer.finish(span)
        assert (span.start, span.end) == (2.5, 9.0)

    def test_find_and_walk(self):
        root = Span("query", start=0.0, category="query")
        job = root.start_child("j1", start=0.0, category="job")
        job.start_child("t1", start=0.0, category="task").finish(1.0)
        job.start_child("t2", start=1.0, category="task").finish(2.0)
        job.finish(2.0)
        root.finish(2.0)
        assert root.find("job") is job
        assert [s.name for s in root.find_all("task")] == ["t1", "t2"]
        depths = {span.name: depth for span, depth in root.walk()}
        assert depths == {"query": 0, "j1": 1, "t1": 2, "t2": 2}


# ---------------------------------------------------------------------------
# End-to-end query traces
# ---------------------------------------------------------------------------


class TestQueryTrace:
    @pytest.mark.parametrize("engine", ["datampi", "hadoop"])
    def test_trace_has_nested_layers(self, warehouse, engine):
        result = traced_query(warehouse, engine)
        trace = result.trace
        assert trace is not None and trace.category == "query"
        assert trace.attributes["engine"] == engine
        compile_span = trace.find("compile")
        jobs = trace.find_all("job")
        tasks = trace.find_all("task")
        assert compile_span is not None and compile_span.duration > 0
        assert jobs and tasks
        assert all(job.attributes["engine"] == engine for job in jobs)
        assert any(span.category == "shuffle" for span, _ in trace.walk())

    @pytest.mark.parametrize("engine", ["datampi", "hadoop"])
    def test_simulated_time_monotonic(self, warehouse, engine):
        trace = traced_query(warehouse, engine).trace
        for span, _depth in trace.walk():
            assert span.closed, f"unfinished span {span.name}"
            assert span.end >= span.start >= 0.0
            for child in span.children:
                assert child.start >= span.start - 1e-9
                assert child.end <= span.end + 1e-9

    def test_jobs_start_after_compile(self, warehouse):
        trace = traced_query(warehouse, "datampi").trace
        compile_span = trace.find("compile")
        for job in trace.find_all("job"):
            assert job.start >= compile_span.end - 1e-9

    def test_trace_duration_matches_query(self, warehouse):
        result = traced_query(warehouse, "datampi")
        assert result.trace.duration == pytest.approx(
            result.simulated_seconds, rel=1e-6
        )

    def test_phase_children_cover_job(self, warehouse):
        trace = traced_query(warehouse, "hadoop").trace
        job = trace.find("job")
        phases = [child for child in job.children if child.category == "phase"]
        names = [phase.name for phase in phases]
        assert "startup" in names and "map-shuffle" in names

    def test_local_engine_trace_shape(self, warehouse):
        result = traced_query(warehouse, "local")
        assert result.trace.find("compile") is not None
        assert result.trace.find("job") is not None

    @pytest.mark.parametrize("engine", ["local", "hadoop", "datampi"])
    def test_explain_trace_is_the_compile_alone(self, warehouse, engine):
        """EXPLAIN compiles and runs nothing: one ``query`` root holding
        one ``compile`` child over the modeled compile seconds, and no
        job span."""
        hdfs, metastore = warehouse
        session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
        result = session.query("EXPLAIN " + QUERY)
        costs = session.engine.model.compile
        seconds = costs.base_seconds + costs.per_job_seconds * result.plan.num_jobs
        trace = result.trace
        assert (trace.name, trace.category, trace.start, trace.end) == (
            "query", "query", 0.0, seconds)
        assert trace.attributes == {"engine": engine, "query_id": f"{engine}-q1",
                                    "statement": "explain"}
        assert [(span.name, span.category, span.start, span.end, span.children)
                for span in trace.children] == [
            ("compile", "compile", 0.0, seconds, [])]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_registry_primitives(self):
        registry = MetricsRegistry()
        registry.counter("c").add(3)
        registry.counter("c").add(2)
        registry.gauge("g").set(7)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 7
        assert snap["h.count"] == 4
        assert snap["h.mean"] == pytest.approx(2.5)
        assert registry.histogram("h").percentile(100) == 4.0
        assert registry.histogram("h").percentile(0) == 1.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").add(-1)

    def test_query_populates_global_metrics(self, warehouse):
        registry = get_metrics()
        registry.reset()
        traced_query(warehouse, "datampi")
        snap = registry.snapshot()
        assert snap["datampi.jobs"] >= 1
        assert snap["datampi.shuffle.bytes"] > 0
        assert snap["cluster.cpu_seconds"] > 0
        assert snap["datampi.job.startup_seconds.count"] >= 1
        registry.reset()
        assert registry.snapshot() == {}


# ---------------------------------------------------------------------------
# Simulator process spans
# ---------------------------------------------------------------------------


class TestSimulatorSpans:
    def test_process_lifetimes_become_spans(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        tracer.set_clock(lambda: sim.now)

        def worker(sim):
            yield sim.timeout(2.0)

        sim.spawn(worker(sim), name="w1")
        sim.run()
        spans = [span for span in tracer.roots if span.category == "process"]
        assert [span.name for span in spans] == ["w1"]
        assert (spans[0].start, spans[0].end) == (0.0, 2.0)

    def test_interrupted_process_marked(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        tracer.set_clock(lambda: sim.now)

        def sleeper(sim):
            yield sim.timeout(100.0)

        def killer(sim, victim):
            yield sim.timeout(1.0)
            victim.interrupt("test")

        victim = sim.spawn(sleeper(sim), name="victim")
        sim.spawn(killer(sim, victim), name="killer")
        sim.run()
        span = next(s for s in tracer.roots if s.name == "victim")
        assert span.end == 1.0
        assert span.attributes.get("interrupted") is True


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExport:
    def test_chrome_trace_round_trip(self, warehouse, tmp_path):
        result = traced_query(warehouse, "datampi")
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), result.trace)
        loaded = load_chrome_trace(str(path))
        # independently parseable as plain JSON
        assert loaded == json.loads(path.read_text())
        events = loaded["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no complete events"
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
        categories = {event["cat"] for event in complete}
        assert {"query", "compile", "job", "task"} <= categories
        assert loaded["otherData"]["clock"] == "simulated-seconds"

    def test_chrome_trace_times_in_microseconds(self):
        root = Span("query", start=0.0, category="query")
        root.start_child("job", start=0.5, category="job").finish(1.5)
        root.finish(2.0)
        events = chrome_trace_events([root])
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        assert by_name["job"]["ts"] == pytest.approx(500_000)
        assert by_name["job"]["dur"] == pytest.approx(1_000_000)

    def test_one_pid_per_engine(self, warehouse):
        roots = [
            traced_query(warehouse, "datampi").trace,
            traced_query(warehouse, "hadoop").trace,
        ]
        trace = to_chrome_trace(roots)
        metadata = {
            event["args"]["name"]: event["pid"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert set(metadata) == {"datampi", "hadoop"}
        assert len(set(metadata.values())) == 2

    def test_flatten_and_csv(self, warehouse, tmp_path):
        trace = traced_query(warehouse, "datampi").trace
        rows = flatten_spans([trace])
        assert rows[0]["name"] == "query" and rows[0]["depth"] == 0
        assert any(row["category"] == "task" for row in rows)
        json_path = tmp_path / "spans.json"
        csv_path = tmp_path / "spans.csv"
        write_spans_json(str(json_path), trace)
        write_spans_csv(str(csv_path), trace)
        assert len(json.loads(json_path.read_text())) == len(rows)
        # header + one line per span
        assert len(csv_path.read_text().strip().splitlines()) == len(rows) + 1
