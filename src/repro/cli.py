"""Command-line interface: a miniature `hive` shell over the simulation.

Examples
--------
Run a query against a generated TPC-H warehouse on both engines::

    python -m repro --workload tpch --sf 10 \
        -e "SELECT count(*) FROM lineitem" --engine hadoop --engine datampi

Execute a TPC-H query by number and capture a cross-layer trace::

    python -m repro --workload tpch --sf 20 --format orc --tpch-query 12 \
        --trace q12.json     # load q12.json in chrome://tracing

Interactive shell (one statement per line, `quit` to exit)::

    python -m repro --workload hibench --gb 5 --interactive
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro import connect, make_warehouse
from repro.common.config import (
    SCHED_DEFAULT_POOL,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.common.errors import ReproError
from repro.common.units import format_duration
from repro.engines import available
from repro.obs import write_chrome_trace
from repro.reporting.breakdown import breakdown_query
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hive on DataMPI (ICDCS'15) — simulated Hive shell",
    )
    parser.add_argument(
        "--engine", action="append", choices=available(),
        help="engine(s) to run on (repeatable; default: datampi)",
    )
    parser.add_argument(
        "--workload", choices=["none", "tpch", "hibench"], default="none",
        help="pre-load a generated warehouse",
    )
    parser.add_argument("--sf", type=float, default=10.0, help="TPC-H scale factor (GB)")
    parser.add_argument("--gb", type=float, default=5.0, help="HiBench nominal size (GB)")
    parser.add_argument(
        "--format", default="text", choices=["text", "sequence", "orc"],
        help="base-table file format",
    )
    parser.add_argument("--sample", type=int, default=6000,
                        help="sampled rows for the biggest table")
    parser.add_argument("--tpch-query", type=int, choices=range(1, 23),
                        metavar="N", help="run TPC-H query N")
    parser.add_argument("-e", "--execute", action="append", default=[],
                        help="HiveQL to execute (repeatable)")
    parser.add_argument("-f", "--file", help="HiveQL script file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="session configuration, e.g. hive.datampi.parallelism=enhanced "
                             "or 'repro.faults=seed:7; crash:w2@30-90' "
                             "(keys in docs/sql_reference.md)")
    parser.add_argument("--trace", metavar="OUT.json",
                        help="write a Chrome-trace JSON of every query "
                             "(simulated time; one pid per engine)")
    parser.add_argument("--interactive", action="store_true",
                        help="read statements from stdin")
    parser.add_argument("--quiet", action="store_true", help="rows only, no timing")
    parser.add_argument("--scheduler", choices=["fifo", "fair", "capacity"],
                        help="submit every statement concurrently to one "
                             "shared cluster under this policy "
                             "(docs/scheduling.md)")
    parser.add_argument("--concurrency", type=int, default=0, metavar="N",
                        help="global admission cap for --scheduler "
                             "(0 = unlimited); implies --scheduler fifo")
    parser.add_argument("--pool", action="append", default=[], metavar="SPEC",
                        help="declare a scheduling pool, e.g. "
                             "'etl:weight=2,cap=1,queue=4' (repeatable; the "
                             "first one becomes the submit pool)")
    return parser


def parse_settings(parser: argparse.ArgumentParser,
                   assignments: List[str]) -> List[Tuple[str, str]]:
    """``--set K=V`` pairs, split at the first ``=`` (the value keeps any
    later ``=`` or ``;``); a missing ``=`` or an empty key is a usage
    error."""
    settings = []
    for assignment in assignments:
        key, sep, value = assignment.partition("=")
        key = key.strip()
        if not sep or not key:
            parser.error(f"--set expects K=V, got {assignment!r}")
        settings.append((key, value.strip()))
    return settings


def load_workload(args, hdfs: HDFS, metastore: Metastore) -> None:
    if args.workload == "tpch":
        from repro.workloads.tpch import load_tpch

        info = load_tpch(hdfs, metastore, sf=args.sf, lineitem_sample=args.sample,
                         format_name=args.format)
        print(f"loaded TPC-H SF-{args.sf:g} ({args.format}): "
              f"{info.total_logical_bytes / 2**30:.1f} GB logical")
    elif args.workload == "hibench":
        from repro.workloads.hibench import load_hibench

        load_hibench(hdfs, metastore, nominal_gb=args.gb,
                     sample_uservisits=args.sample, format_name=args.format)
        print(f"loaded HiBench {args.gb:g} GB ({args.format})")


def run_statement(sessions, sql: str, quiet: bool, trace_roots=None) -> None:
    for engine_name, session in sessions:
        try:
            results = session.execute(sql)
        except ReproError as error:
            print(f"[{engine_name}] ERROR: {error}", file=sys.stderr)
            continue
        breakdown = breakdown_query("cli", results)
        for result in results:
            if result.statement in ("select", "explain") and result.rows is not None:
                for row in result.rows:
                    print("\t".join("NULL" if v is None else str(v) for v in row))
            if trace_roots is not None and result.trace is not None:
                trace_roots.append(result.trace)
        if not quiet:
            print(
                f"[{engine_name}] {breakdown.num_jobs} job(s), "
                f"{format_duration(breakdown.total)} simulated "
                f"(startup {breakdown.startup:.1f}s, "
                f"map-shuffle {breakdown.map_shuffle:.1f}s)",
                file=sys.stderr,
            )


def run_concurrent(sessions, statements: List[str], quiet: bool,
                   trace_roots=None) -> None:
    """Submit every statement script as its own concurrent query on each
    engine's shared cluster, then drain and report the workload."""
    for engine_name, session in sessions:
        handles = []
        for sql in statements:
            try:
                handles.append(session.submit(sql))
            except ReproError as error:
                print(f"[{engine_name}] REJECTED: {error}", file=sys.stderr)
        session.scheduler.drain()
        for handle in handles:
            try:
                handle.result()
            except ReproError as error:
                print(f"[{engine_name}] {handle.query_id} ERROR: {error}",
                      file=sys.stderr)
                continue
            for result in handle.results:
                if result.statement in ("select", "explain") and result.rows is not None:
                    for row in result.rows:
                        print("\t".join("NULL" if v is None else str(v) for v in row))
                if trace_roots is not None and result.trace is not None:
                    trace_roots.append(result.trace)
        if not quiet:
            summary = session.scheduler.summary()
            p50 = summary["latency_p50"] or 0.0
            p99 = summary["latency_p99"] or 0.0
            line = (
                f"[{engine_name}] {summary['queries']} quer(ies) under "
                f"{summary['policy']}: makespan "
                f"{format_duration(summary['makespan'])}, p50 latency "
                f"{format_duration(p50)}, p99 {format_duration(p99)}, "
                f"fairness {summary['fairness']:.3f}"
            )
            if summary["rejected"]:
                line += f", rejected {summary['rejected']}"
            if summary["peak_queue_depth"]:
                line += f", peak queue {summary['peak_queue_depth']}"
            print(line, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = parse_settings(parser, args.set)
    engines = args.engine or ["datampi"]

    hdfs, metastore = make_warehouse(num_workers=7)
    load_workload(args, hdfs, metastore)

    concurrent = bool(args.scheduler) or args.concurrency > 0
    sessions = []
    for engine_name in engines:
        session = connect(engine=engine_name, hdfs=hdfs, metastore=metastore)
        for key, value in settings:
            session.conf.set(key, value)
        if concurrent:
            session.conf.set(SCHED_POLICY, args.scheduler or "fifo")
            session.conf.set(SCHED_MAX_CONCURRENT, args.concurrency)
            if args.pool:
                session.conf.set(SCHED_POOLS, "; ".join(args.pool))
                first = args.pool[0].partition(":")[0].strip()
                session.conf.set(SCHED_DEFAULT_POOL, first)
        sessions.append((engine_name, session))

    trace_roots = [] if args.trace else None
    if args.trace:
        try:  # fail before simulating, not after
            open(args.trace, "w").close()
        except OSError as error:
            print(f"cannot write trace file: {error}", file=sys.stderr)
            return 2

    statements: List[str] = list(args.execute)
    if args.tpch_query:
        from repro.workloads.tpch import tpch_query

        statements.append(tpch_query(args.tpch_query, args.sf))
    if args.file:
        with open(args.file) as handle:
            statements.append(handle.read())

    if concurrent and statements:
        run_concurrent(sessions, statements, args.quiet, trace_roots)
    else:
        for sql in statements:
            run_statement(sessions, sql, args.quiet, trace_roots)

    if args.interactive or not statements:
        print("repro> enter HiveQL (quit to exit)", file=sys.stderr)
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            if line.lower() in ("quit", "exit", "q"):
                break
            run_statement(sessions, line, args.quiet, trace_roots)

    if args.trace:
        write_chrome_trace(args.trace, trace_roots or [])
        print(f"trace: {len(trace_roots or [])} query span tree(s) -> {args.trace}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
