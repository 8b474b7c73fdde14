"""Tests for the command-line interface."""

import io

import pytest

from repro import connect
from repro.cli import build_parser, main
from repro.common.config import SCHED_POOLS


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "none"
        assert args.engine is None

    def test_repeatable_engines(self):
        args = build_parser().parse_args(["--engine", "hadoop", "--engine", "datampi"])
        assert args.engine == ["hadoop", "datampi"]

    def test_tpch_query_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--tpch-query", "23"])


class TestMain:
    def run_cli(self, argv, capsys, stdin_text=""):
        import sys

        old_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old_stdin
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_execute_on_two_engines(self, capsys):
        code, out, err = self.run_cli(
            ["--workload", "tpch", "--sf", "10", "--sample", "1500",
             "--engine", "hadoop", "--engine", "datampi",
             "-e", "SELECT count(*) FROM region"],
            capsys,
        )
        assert code == 0
        assert out.count("5") >= 2  # 5 regions, printed per engine
        assert "[hadoop]" in err and "[datampi]" in err

    def test_quiet_suppresses_timing(self, capsys):
        code, out, err = self.run_cli(
            ["--workload", "tpch", "--sf", "10", "--sample", "1500", "--quiet",
             "-e", "SELECT count(*) FROM nation"],
            capsys,
        )
        assert "25" in out
        assert "[datampi]" not in err.replace("repro>", "")

    def test_set_option_applies(self, capsys):
        code, out, err = self.run_cli(
            ["--workload", "tpch", "--sf", "10", "--sample", "1500",
             "--set", "hive.datampi.parallelism=enhanced",
             "-e", "SELECT count(*) FROM supplier"],
            capsys,
        )
        assert code == 0

    @pytest.mark.parametrize("assignment", ["=x", "hive.datampi.sendqueue"])
    def test_malformed_set_is_usage_error(self, assignment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--set", assignment, "-e", "SELECT 1"])
        assert excinfo.value.code == 2
        assert "--set expects K=V" in capsys.readouterr().err

    def test_set_value_keeps_equals_and_semicolons(self, capsys, monkeypatch):
        import repro.cli

        sessions = []

        def capture(**kwargs):
            session = connect(**kwargs)
            sessions.append(session)
            return session

        monkeypatch.setattr(repro.cli, "connect", capture)
        code, _out, _err = self.run_cli(
            ["--engine", "local", "--quiet",
             "--set", "repro.sched.pools=etl:weight=2,cap=1; adhoc",
             "-e", "SELECT x FROM ghost"],
            capsys,
        )
        assert code == 0
        assert [s.conf.get(SCHED_POOLS) for s in sessions] == [
            "etl:weight=2,cap=1; adhoc"
        ]

    def test_tpch_query_flag(self, capsys):
        code, out, err = self.run_cli(
            ["--workload", "tpch", "--sf", "10", "--sample", "1500",
             "--engine", "local", "--tpch-query", "6", "--quiet"],
            capsys,
        )
        assert code == 0
        assert out.strip()  # Q6 prints one revenue number

    def test_sql_error_reported_not_fatal(self, capsys):
        code, out, err = self.run_cli(
            ["--workload", "none", "--engine", "local", "-e", "SELECT x FROM ghost"],
            capsys,
        )
        assert code == 0
        assert "ERROR" in err

    def test_interactive_loop(self, capsys):
        code, out, err = self.run_cli(
            ["--workload", "tpch", "--sf", "10", "--sample", "1500",
             "--engine", "local", "--quiet", "--interactive"],
            capsys,
            stdin_text="SELECT count(*) FROM region;\nquit\n",
        )
        assert code == 0
        assert "5" in out
