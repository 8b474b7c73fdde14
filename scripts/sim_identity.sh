#!/usr/bin/env bash
# "Simulated seconds did not move", as one command: regenerate every
# figure/table/ablation/resilience CSV from two commits and fail on any
# byte difference.  The gate for engine and cost-model refactors.
#
# Usage: scripts/sim_identity.sh [-k <expr>] [<base-ref> [<change-ref>]]
#        (defaults: HEAD~1 and HEAD; about 2.5 minutes per side)
#
# -k <expr> narrows the benches with a pytest -k expression while
# iterating (e.g. `-k fig08`, the bench most sensitive to same-instant
# ordering, in under a minute); the gate itself is the default selection.
#
# Both refs are exported with `git archive` into a temp dir, so the
# checked-in results/ (and the work tree) are never read or written.
set -euo pipefail

cd "$(dirname "$0")/.."
select="fig or table or ablation or resilience"
if [ "${1:-}" = "-k" ]; then
    select="$2"
    shift 2
fi
base="${1:-HEAD~1}"
change="${2:-HEAD}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

regenerate() {  # <ref> <name>: results/*.csv of <ref> into $work/<name>.csv
    local tree="$work/$2"
    mkdir "$tree" "$tree.csv"
    git archive "$1" | tar -x -C "$tree"
    rm -f "$tree"/results/*.csv  # only CSVs this run writes are compared
    echo "== regenerating results/*.csv at $1 =="
    (cd "$tree" && PYTHONPATH=src python -m pytest benchmarks -q \
        -p no:cacheprovider -k "$select" \
        >"$tree.log" 2>&1) || { tail -n 30 "$tree.log"; exit 2; }
    cp "$tree"/results/*.csv "$tree.csv/"
}

regenerate "$base" base
regenerate "$change" change

if diff -r "$work/base.csv" "$work/change.csv"; then
    echo "simulated seconds identical: $(ls "$work/base.csv" | wc -l) CSVs," \
         "$base vs $change"
else
    echo "results/*.csv differ between $base and $change" >&2
    exit 1
fi
