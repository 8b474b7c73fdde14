"""Tests for the reporting layer (breakdowns, figures, productivity)."""

import os

import pytest

from repro.bench import fresh_hibench, improvement_percent, run_hibench_query, run_script
from repro.reporting.breakdown import (
    JobBreakdown,
    QueryBreakdown,
    breakdown_query,
    format_breakdown_table,
)
from repro.reporting.figures import (
    ascii_bar_chart,
    format_comparison_table,
    format_series_table,
    write_csv,
)
from repro.reporting.productivity import (
    count_code_lines,
    format_productivity_table,
    productivity_report,
)

# Table III's engine-specific rows, pinned.  Edit these downward only:
# an engine body that grows a copy of shared task scaffolding back needs
# a declared test edit.  The DataMPI plug-in is counted without the MPI-D
# library it runs on, which has a row of its own.
ENGINE_LINES = {
    "engine for Hadoop": 287,
    "engine for DataMPI (main changes)": 313,
    "DataMPI library": 560,
    "engine for LLAP": 434,
}


class TestBreakdown:
    def test_query_breakdown_sums(self):
        breakdown = QueryBreakdown(label="q", compile_seconds=1.0)
        breakdown.jobs.append(JobBreakdown("j1", startup=2.0, map_shuffle=10.0, others=3.0))
        breakdown.jobs.append(JobBreakdown("j2", startup=1.0, map_shuffle=5.0, others=2.0))
        assert breakdown.startup == 3.0
        assert breakdown.map_shuffle == 15.0
        assert breakdown.others == 5.0
        assert breakdown.total == 24.0
        assert breakdown.num_jobs == 2

    def test_breakdown_from_driver_results(self, local_session):
        results = local_session.execute("SELECT dept, count(*) FROM emp GROUP BY dept")
        breakdown = breakdown_query("probe", results)
        assert breakdown.num_jobs == 1
        assert breakdown.compile_seconds > 0

    def test_format_table(self):
        breakdown = QueryBreakdown(label="q")
        breakdown.jobs.append(JobBreakdown("j", 1.0, 2.0, 3.0))
        text = format_breakdown_table({"q": breakdown})
        assert "map-shuffle" in text and "q" in text


class TestFigures:
    def test_series_table(self):
        text = format_series_table("T", "x", [1, 2], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert "T" in text and "3.00" in text

    def test_comparison_table_improvement(self):
        text = format_comparison_table(
            "cmp", ["r1"], {"base": [10.0], "new": [8.0]},
            improvement_of=("base", "new"),
        )
        assert "20.0" in text

    def test_ascii_bar_chart(self):
        text = ascii_bar_chart("bars", ["a", "b"], [1.0, 2.0])
        assert text.count("|") == 2

    def test_write_csv(self, tmp_path):
        path = write_csv(str(tmp_path / "out.csv"), ["a", "b"], [[1, 2], [3, 4]])
        assert os.path.exists(path)
        content = open(path).read()
        assert "a,b" in content and "3,4" in content


class TestProductivity:
    def test_counts_positive(self):
        report = productivity_report()
        for label, count in report.items():
            assert count.lines > 0, label
            assert count.files > 0, label

    def test_datampi_small_vs_shared(self):
        report = productivity_report()
        shared = (
            report["compiler (shared)"].lines
            + report["execution shared (operators, tasks)"].lines
        )
        assert report["engine for DataMPI (main changes)"].lines < shared

    def test_engine_rows_are_pinned(self):
        report = productivity_report()
        for label, ceiling in ENGINE_LINES.items():
            assert report[label].lines <= ceiling, label

    def test_count_skips_comments_and_docstrings(self, tmp_path, monkeypatch):
        module = tmp_path / "probe.py"
        module.write_text('"""docstring\nspanning lines\n"""\n# comment\nx = 1\n\ny = 2\n')
        import repro

        monkeypatch.setattr(repro, "__file__", str(tmp_path / "__init__.py"))
        count = count_code_lines(["probe.py"])
        assert count.lines == 2

    def test_format_table(self):
        text = format_productivity_table(productivity_report())
        assert "Table III" in text


class TestBenchHelpers:
    def test_improvement_percent(self):
        assert improvement_percent(100.0, 75.0) == pytest.approx(25.0)
        assert improvement_percent(0.0, 10.0) == 0.0

    def test_run_script_breakdown(self):
        hdfs, metastore = fresh_hibench(5, sample_uservisits=1200)
        run = run_script(
            "local", hdfs, metastore, "SELECT count(*) FROM uservisits", label="probe"
        )
        assert run.results[0].rows == [(1200,)]
        assert run.breakdown.label == "probe"

    def test_run_hibench_query_excludes_ddl(self):
        hdfs, metastore = fresh_hibench(5, sample_uservisits=1200)
        run = run_hibench_query("local", hdfs, metastore, "aggregate")
        assert run.breakdown.label == "hibench-aggregate"
        assert run.breakdown.num_jobs == 1
