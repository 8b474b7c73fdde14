"""hostbench: the repo's wall-clock benchmark.

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload (the BENCHMARK.json contract): prints
        every metric by name with its unit, then one JSON object on the
        last line
    python3 hostbench/run.py [--workload W ...] [--repeat N] [--out F.jsonl]
        the suite: for every workload (and N consecutive seeds) an
        untraced run, then a traced run; records appended to F.jsonl
    python3 hostbench/run.py --smoke
        1 pass + 1 traced pass per workload at quarter-size data
    python3 hostbench/run.py --compare A.jsonl [B.jsonl]
        spread of A against the bounds, or B against A

Every run happens in a fresh subprocess with ``PYTHONHASHSEED=0`` and
the default ``Configuration()``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT]  # import hostbench as a package (see measure.py)

from hostbench import compare  # noqa: E402

RUN_TIMEOUT = 170  # the contract allows 180 s per run


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              smoke: bool, trace_out: str = "") -> dict:
    argument = json.dumps([workload, seed, seconds, traced, smoke, trace_out])
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "hostbench", "measure.py"),
         argument],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']}  seed {record['seed']}  {mode}"
          f"{'  smoke' if record['smoke'] else ''}")
    print(f"   why: {record['why']}")
    print(f"   input: {record['input']}")
    print(f"   untraced timed passes: {record['passes']}; "
          f"attempted {record['attempted']}, failed {record['failed']}")
    for name, cell in record["metrics"].items():
        print(f"   {name:42s} {cell['value']:>16.6g} {cell['unit']}")
    for name, detail in record["detail"].items():
        if isinstance(detail, dict):
            detail = ", ".join(
                f"{key} {value:.6g}" for key, value in detail.items())
        print(f"   [{name}: {detail}]")


def contract_line(record: dict, spec: dict) -> str:
    """The last stdout line the benchmark contract asks for."""
    group = "per_layer" if record["trace"] else "end_to_end"
    names = [metric["name"] for metric in spec[group]]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in names},
    })


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--trace-out", default="",
                        help="write the traced run's spans here (JSONL)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="suite: append run records (JSONL)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs="+", metavar="RUNS.jsonl")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(args.compare, spec)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("hostbench: src/repro not found beside hostbench/",
              file=sys.stderr)
        return 2

    if args.smoke:
        args.seconds = 0.0  # one timed pass per measurement

    if args.trace is not None:  # one contract run
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        record = run_child(args.workload[0], args.seed, args.seconds,
                           bool(args.trace), args.smoke, args.trace_out)
        print_record(record)
        print(contract_line(record, spec))
        return 0

    failed = 0
    for workload in args.workload or names:
        for seed in range(args.seed, args.seed + args.repeat):
            for traced in (False, True):
                record = run_child(workload, seed, args.seconds, traced,
                                   args.smoke, args.trace_out)
                print_record(record)
                failed += record["failed"]
                if args.out:
                    with open(args.out, "a") as handle:
                        handle.write(json.dumps(record) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
