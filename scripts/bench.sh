#!/usr/bin/env bash
# Host-performance benchmark runner.
#
# Builds the release preset and runs the simulator self-benchmark,
# leaving BENCH_selfbench.json in the repo root:
#
#   - kv-store GET/SET ops/sec through the server timing model;
#   - datapath request walk reqs/sec: kernel path vs the batched
#     bypass fast path (host-side cost of the batching bookkeeping);
#   - fig5-style sweep wall-clock, serial vs --jobs N.
#
# It then runs the google-benchmark micro suite (cache hit, DRAM
# access, flash read, core trace walk on A7 and A15, a GET's code
# passes on an A7 with and without the L2 -- replayed from the fetch
# memo, and walked cold with a fresh memo --, end-to-end GET, and the
# cluster client's rack-aware replica routing per request), and the
# store's populate case (items/s inserting a fresh working set).
#
# Numbers are host-dependent; nothing here is golden, but the
# per-second rates are compared against the committed
# BENCH_selfbench.json via tools/perfguard.py (advisory here; in
# scripts/check.sh a hard gate whenever the host fingerprint matches
# the baseline's). Pass --smoke for the CI-sized run (scripts/check.sh
# uses that for its perf-smoke stage). After a change that moves the
# rates, commit the fresh BENCH_selfbench.json as the new baseline.
#
# Usage: scripts/bench.sh [--smoke] [--jobs=N] [--out=PATH]

set -eu -o pipefail

cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j "$(nproc)" \
    --target selfbench micro_sim micro_kvstore

./build/release/bench/selfbench "$@"

# Compare the fresh rates against the committed baseline (the
# HEAD version, since the default --out just overwrote the file in
# the worktree). Advisory here -- hosts differ; scripts/check.sh
# runs the same guard as a hard failure against its own smoke run.
out=BENCH_selfbench.json
for arg in "$@"; do
    case "$arg" in
        --out=*) out="${arg#--out=}" ;;
    esac
done
if git show HEAD:BENCH_selfbench.json \
        > /tmp/mercury-selfbench-baseline.json 2>/dev/null; then
    python3 tools/perfguard.py \
        /tmp/mercury-selfbench-baseline.json "$out" \
        || echo "bench.sh: perfguard reported a regression (advisory)"
else
    echo "bench.sh: no committed baseline; skipping perfguard"
fi

# The google-benchmark micro suite prints per-operation costs for
# the same substrate; useful next to the selfbench aggregate rates.
./build/release/bench/micro_sim
./build/release/bench/micro_kvstore --benchmark_filter=BM_StorePopulate
