#!/usr/bin/env bash
# Repo health gate: lint (when ruff is installed), the tier-1 test suite,
# the hostbench suite, one smoke pass of every hostbench workload, the
# examples and the report benches.
# Usage: scripts/check.sh [extra pytest args]
#
# Not part of this gate (about 5 minutes) but REQUIRED for any change
# under src/repro/simulate/ or to an engine's event structure (what it
# schedules, spawns or waits on): scripts/sim_identity.sh [<base>]
# regenerates every figure/table CSV at <base> and at HEAD and fails on
# any byte difference.  Tier-1 is not sufficient there — a same-instant
# reordering has passed every tier-1 golden and still moved fig08
# (docs/performance.md, "DES substrate"); `-k fig08` gives that bench
# alone in under a minute while iterating.
# The same script is REQUIRED for any change under
# src/repro/storage/formats/: encoded sizes are cost-model inputs (the
# simulated disk is charged the compressed ORC streams, block boundaries
# come from the Sequence/Text prefix sums), so an encoder change must
# emit exactly the same bytes.  tests/test_orc_golden.py and
# tests/test_sim_golden_write.py pin that in tier-1; re-capture them
# (PYTHONPATH=src python tests/test_orc_golden.py, likewise
# tests/test_sim_golden_write.py) only after a declared format change.
# And it is REQUIRED for any change to what a collector, a Send
# Partition List or the ReceiveManager holds, or to how a ReduceSink
# sizes or partitions pairs: pair sizes, partitions and send-buffer
# boundaries are cost-model inputs (every spill, copy and MPI_Isend is
# charged from them).  tests/test_pair_golden.py pins them in tier-1
# against values captured at d8e5cc1, before the shuffle went columnar;
# re-capture (PYTHONPATH=src python tests/test_pair_golden.py) only
# after a declared change.
# The second gate for exec-layer refactors is in the tier-1 run below:
# tests/test_exec_boundary.py parses the sources and fails when the
# engines' column-kernel path and the local oracle's row/closure path
# start sharing names (PYTHONPATH=src python -m pytest tests/test_exec_boundary.py).
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable) =="
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q "$@"

echo "== simulated-time, encoded-byte, shuffle-pair + serving goldens, event budget, cost-model fingerprint, kernel + lease equivalence, scan projection, statement lifecycle, sampler purity, loader identity + held-once tables under PYTHONHASHSEED=1 =="
# Same-instant ordering bugs are the kind that hide behind one hash
# seed (a set or dict walked in address order decides who goes first),
# so the exact-value suites run a second time under a different one.
# The byte goldens ride along: ORC dictionary encoding walks a set of
# strings before sorting it, and hash order must not reach the stream.
# So does the pair golden: partitions come from crc32 of the key bytes,
# never from hash(), and the skew router's heavy-key dict must not
# decide an order.  And the kernel equivalence properties: the emitter
# numbers subexpressions through dicts and sets, and neither a shared
# value nor a group's insertion order may depend on how they hash.
# The serving golden and the lease arbitration property too: admission
# and the pending-lease index walk dicts keyed by pool and by event, and
# only arrival order may decide who is served first.
# And scan projection: a scan resolves the hinted names to positions
# through a set, the planner collects them in one, and which columns a
# batch holds (or a kernel shares a count slot with) may not depend on
# how either is walked.
# And the cost model: every simulated-time golden compares its recorded
# fingerprint first, so the fingerprint itself may not depend on the
# hash seed.
# And the statement lifecycle: execute and submit run one generator and
# must agree to the last bit, and the metrics sampler must not move a
# simulated second — both are exact comparisons of simulated time.
# And the loaders: every golden descends from their rows, sizes and
# block layouts, ORC loads encode dictionaries that walk sets, and the
# held-once structure (typed columns straight from the loader, no row
# list left behind) may not depend on how any of them is walked.
PYTHONHASHSEED=1 PYTHONPATH=src python -m pytest -q \
    tests/test_sim_golden.py tests/test_sim_golden_faults.py \
    tests/test_sim_golden_shuffle.py tests/test_event_budget.py \
    tests/test_orc_golden.py tests/test_sim_golden_write.py \
    tests/test_pair_golden.py tests/test_kernel_equivalence.py \
    tests/test_serving_golden.py tests/test_lease_arbitration.py \
    tests/test_scan_projection.py tests/test_costmodel.py \
    tests/test_statement_lifecycle.py tests/test_cluster_metrics.py \
    tests/test_dbgen_reference.py tests/test_table_held_once.py

echo "== hostbench tests (recorder, seam wrappers, compare, oracle) =="
# The wall-clock benchmark's own suite (BENCHMARK.json's contract): it
# wraps the pinned seams of the real package, so a change that renames
# or bypasses one fails here instead of in the benchmark run.
python -m pytest hostbench/tests -q

echo "== hostbench smoke (every workload end to end, checked against the oracle) =="
# The suite above tests the recorder and the seams, not the workloads'
# answers: a kernel that returned wrong rows on tpch_scan_orc would pass
# every gate before this one.  --smoke runs all six workloads at quarter
# size, one untraced and one traced pass each (about 18 s on 2 Xeon
# cores), compares every result with the local oracle and exits 1 on
# any failed operation; only each record's heading and its attempted /
# failed line are shown.
python3 hostbench/run.py --smoke | grep -E "^== |attempted"

echo "== examples (each runs to completion) =="
# Nothing else imports examples/*.py, so an API change would strand
# them silently; together they take about 11 s on 2 Xeon cores.
for example in examples/*.py; do
    echo "-- $example"
    PYTHONPATH=src python "$example" > /dev/null
done

echo "== report benches (regenerate results/BENCH_*.json, byte-diff) =="
# Each bench is a pytest module that regenerates one committed report
# and asserts its shape: chaos (>=25 seeded fault schedules, four
# invariants, replay), concurrency (fair beats FIFO on hadoop ad-hoc
# p50), llap (warm >=3x both rivals, cache hits), serving (>=10k
# offered, percentiles per policy) and skew (>=2x hot-reducer cut on
# two engines).  Every report is deterministic, so any byte difference
# from the file in the tree (the committed one, in a clean checkout)
# fails here; a deliberate change commits the regenerated file.
committed="$(mktemp -d)"
trap 'rm -rf "$committed"' EXIT
cp results/BENCH_*.json "$committed/"
PYTHONPATH=src python -m pytest -q -p no:cacheprovider \
    benchmarks/bench_chaos.py benchmarks/bench_concurrency.py \
    benchmarks/bench_llap.py benchmarks/bench_serving.py \
    benchmarks/bench_skew.py
for report in "$committed"/*.json; do
    diff -u "$report" "results/$(basename "$report")"
done
