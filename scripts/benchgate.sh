#!/usr/bin/env bash
# benchgate.sh — regression gate over the tracked hot-path and sparse
# benchmarks.
#
# Usage:
#   scripts/benchgate.sh [BASELINE_JSON] [TOLERANCE] [SPARSE_BASELINE] [SPARSE_TOLERANCE]
#
# Defaults: BASELINE_JSON=BENCH_hotpath.json (the checked-in record),
# TOLERANCE=0.10 (10% slower than baseline fails),
# SPARSE_BASELINE=BENCH_sparse.json, SPARSE_TOLERANCE=0.30.
#
# Runs `ftbench -e hotpath -report ... -gate BASELINE_JSON` on the
# working tree, writes the fresh report to bench-out/hotpath-gate.json,
# and fails when fitness_eval or trajectory_build regress past the
# tolerance or the report breaks its invariants (the fitness path
# allocating among them). The checked-in baseline and a CI runner are
# different machines, so the tolerance compares like-for-like only when
# the baseline was produced on the same runner class — for cross-machine
# runs, pass a baseline produced with `ftbench -e hotpath` on the same
# host (see .github/workflows/ci.yml, which measures its own baseline
# from the merge base).
#
# Then runs `ftbench -e sparse -report ... -gate SPARSE_BASELINE`. The
# sparse gate compares speedup ratios, not ns/op, so the checked-in
# baseline works across machines; the looser default tolerance absorbs
# shared-runner variance. The report's invariants hold regardless of
# tolerance: sparse wins ≥5× over dense at 256+ unknowns (where dense is
# still timeable), and the frequency-blocked numeric phase never
# collapses below 2× over the scalar sparse refactorization at 2000+
# unknowns (its blocked-vs-scalar ratio is additionally gated relative
# to the baseline; the ≥3× numeric-phase acceptance floor is held by the
# checked-in record, under `go test ./cmd/ftbench`).
set -euo pipefail

baseline=${1:-BENCH_hotpath.json}
tol=${2:-0.10}
sparse_baseline=${3:-BENCH_sparse.json}
sparse_tol=${4:-0.30}

root=$(git rev-parse --show-toplevel)
out_dir=$root/bench-out
mkdir -p "$out_dir"

cd "$root"
go run ./cmd/ftbench -e hotpath \
    -report "$out_dir/hotpath-gate.json" \
    -gate "$baseline" -gate-tol "$tol"

go run ./cmd/ftbench -e sparse \
    -report "$out_dir/sparse-gate.json" \
    -gate "$sparse_baseline" -gate-tol "$sparse_tol"
