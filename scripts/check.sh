#!/usr/bin/env bash
# Repo health gate: lint (when ruff is installed), the tier-1 test suite,
# the hostbench suite and the smoke benchmarks.
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

echo "== simulated-time, encoded-byte, shuffle-pair + serving goldens, event budget, cost-model fingerprint, kernel + lease equivalence, scan projection under PYTHONHASHSEED=1 =="
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
PYTHONHASHSEED=1 PYTHONPATH=src python -m pytest -q \
    tests/test_sim_golden.py tests/test_sim_golden_faults.py \
    tests/test_sim_golden_shuffle.py tests/test_event_budget.py \
    tests/test_orc_golden.py tests/test_sim_golden_write.py \
    tests/test_pair_golden.py tests/test_kernel_equivalence.py \
    tests/test_serving_golden.py tests/test_lease_arbitration.py \
    tests/test_scan_projection.py tests/test_costmodel.py

echo "== hostbench tests (recorder, seam wrappers, compare, oracle) =="
# The wall-clock benchmark's own suite (BENCHMARK.json's contract): it
# wraps the pinned seams of the real package, so a change that renames
# or bypasses one fails here instead of in the benchmark run.
python -m pytest hostbench/tests -q

echo "== concurrency smoke (scheduler policies, shared cluster) =="
# Small mixed workload under every scheduling policy on both engines;
# cross-checks rows against solo runs and fails if fair-share does not
# beat FIFO ad-hoc latency.  The tier-1 run above already covers the
# deterministic-concurrency and differential-oracle suites
# (tests/test_scheduler.py, tests/test_differential_oracle.py).
python benchmarks/bench_concurrency.py --smoke \
    --output "$(mktemp -d)/BENCH_concurrency_smoke.json"

echo "== llap smoke (persistent daemons + caches, oracle-checked) =="
# Repeated-query workload on all engines: every row cross-checked
# against the local oracle, and the run fails unless warm llap beats
# both baselines >=3x, warm fragment dispatch undercuts hadoop's
# per-job startup, and re-scans hit the decoded-stripe cache.  The
# wall-clock guard only trips on order-of-magnitude regressions.
python benchmarks/bench_llap.py --smoke --guard-seconds 60 \
    --output "$(mktemp -d)/BENCH_llap_smoke.json"

echo "== chaos smoke (seeded fault schedules, four invariants) =="
# A couple of randomized-but-seeded fault + membership schedules per
# engine, each asserting the four chaos invariants (oracle-identical
# rows, balanced lease ledger, cache coherence, no stuck query).  The
# wall-clock guard only trips on order-of-magnitude regressions.
python benchmarks/bench_chaos.py --smoke --guard-seconds 120 \
    --output "$(mktemp -d)/BENCH_chaos_smoke.json"

echo "== serving smoke (open-loop traffic, SLO metrics per policy) =="
# Seeded bursty arrivals (Zipf-skewed query mix, sessions over pools)
# replayed under every admission policy on a small llap cluster; fails
# unless every policy reports latency percentiles and at least one
# query completes.  The wall-clock guard only trips on order-of-
# magnitude kernel regressions (or a stuck scheduler).
python benchmarks/bench_serving.py --smoke --guard-seconds 60 \
    --output "$(mktemp -d)/BENCH_serving_smoke.json"

echo "== skew smoke (stats-driven split shuffle, oracle-checked) =="
# One Zipf-1.6 join per engine with splitting on and off: rows must be
# byte-identical to the local oracle both ways, and at least two
# engines must collapse the hot reducer's byte share >=2x.  The
# wall-clock guard only trips on order-of-magnitude regressions.
python benchmarks/bench_skew.py --smoke --guard-seconds 60 \
    --output "$(mktemp -d)/BENCH_skew_smoke.json"

if [[ "${CHECK_HOSTBENCH_SMOKE:-0}" == "1" ]]; then
    echo "== hostbench smoke (six workloads, 1 pass + 1 traced pass each) =="
    # Quarter-size run of every BENCHMARK.json workload, oracle-checked,
    # with the per-layer trace installed once.  Opt-in because it takes
    # up to a minute; run it before committing a change that claims (or
    # risks) a wall-clock difference.
    python3 hostbench/run.py --smoke
fi

if [[ "${CHECK_CHAOS_FULL:-0}" == "1" ]]; then
    echo "== chaos full (>=25 schedules + replay determinism) =="
    # Full sweep (9 seeds x 3 engines plus a replay pass per engine)
    # writing the committed availability/recovery report to
    # results/BENCH_chaos.json.  Opt-in because it takes a while; run it
    # before committing fault-, membership- or scheduler-sensitive
    # changes.
    python benchmarks/bench_chaos.py
fi

if [[ "${CHECK_LLAP_FULL:-0}" == "1" ]]; then
    echo "== llap full (warm/cold + cache economics report) =="
    # Full-size repeated workload writing the committed report to
    # results/BENCH_llap.json.  Opt-in because it takes a while; run it
    # before committing llap- or cache-sensitive changes.
    python benchmarks/bench_llap.py
fi

if [[ "${CHECK_CONCURRENCY_FULL:-0}" == "1" ]]; then
    echo "== concurrency full (policy comparison report) =="
    # Full-size workload (more queries, bigger warehouse) writing the
    # policy comparison to results/.  Opt-in because it takes a while;
    # run it before committing scheduler- or lease-sensitive changes.
    python benchmarks/bench_concurrency.py
fi

if [[ "${CHECK_SERVING_FULL:-0}" == "1" ]]; then
    echo "== serving full (>=10k queries on a 101-node cluster + soak) =="
    # Full traffic run (3 policies x 4000 queries, 2000 sessions)
    # writing the committed SLO report to results/BENCH_serving.json,
    # plus the long-run soak test (liveness, clean ledger, stable RSS
    # across thousands of queries with deadlines and cancellations).
    # Opt-in because it takes a while; run it before committing kernel-,
    # scheduler- or lease-sensitive changes.
    python benchmarks/bench_serving.py --guard-seconds 600
    CHECK_SERVING_FULL=1 PYTHONPATH=src python -m pytest \
        tests/test_serving.py::TestServingSoak -q
fi

if [[ "${CHECK_SKEW_FULL:-0}" == "1" ]]; then
    echo "== skew full (3 skew factors x 3 engines, committed report) =="
    # Full sweep over Zipf 0.8/1.2/1.6 writing the committed tail-
    # reduction report to results/BENCH_skew.json.  Opt-in because it
    # takes a while; run it before committing optimizer-, stats- or
    # shuffle-sensitive changes.
    python benchmarks/bench_skew.py
fi
