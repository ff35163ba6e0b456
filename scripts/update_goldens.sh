#!/usr/bin/env bash
# Regenerate the golden observability dumps under tests/golden/.
#
# Run this after an *intentional* behaviour or stats-schema change,
# eyeball the diff (tools/statdiff.py shows it key by key), and
# commit the new goldens together with the change that moved them.
#
# Usage: scripts/update_goldens.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build=${1:-build}

if [ ! -d "$build" ]; then
    echo "build directory '$build' not found; configure first:" >&2
    echo "  cmake --preset release && cmake --build --preset release" >&2
    exit 1
fi

cmake --build "$build" -j "$(nproc)" --target \
    fig4_request_breakdown fig5_mercury_latency fig6_iridium_latency \
    datapath_sweep fault_sweep bad_day cluster_tail

declare -A benches=(
    [fig4_smoke]=fig4_request_breakdown
    [fig5_smoke]=fig5_mercury_latency
    [fig6_smoke]=fig6_iridium_latency
    [datapath_smoke]=datapath_sweep
)

for golden in "${!benches[@]}"; do
    bin=$build/bench/${benches[$golden]}
    out=tests/golden/$golden.json
    if [ -f "$out" ]; then
        cp "$out" "$out.orig"
    fi
    "$bin" --smoke --stats-json="$out" > /dev/null
    echo "$(python3 tools/statdiff.py --digest "$out")  $out"
    if [ -f "$out.orig" ]; then
        python3 tools/statdiff.py -q "$out.orig" "$out" || true
        rm -f "$out.orig"
    fi
done

# Windowed-telemetry goldens (tests/golden/run_timeseries_golden.sh
# pins these bytes): a bench's --smoke JSONL at a 5 ms sample window.
pin_timeseries() {
    local ts_out=tests/golden/$1.jsonl
    if [ -f "$ts_out" ]; then
        cp "$ts_out" "$ts_out.orig"
    fi
    "$build/bench/$2" --smoke --sample-interval=5000 \
        --timeseries-out="$ts_out" > /dev/null
    echo "$(python3 tools/statdiff.py --digest "$ts_out")  $ts_out"
    if [ -f "$ts_out.orig" ]; then
        python3 tools/tsplot.py diff -q "$ts_out.orig" "$ts_out" || true
        rm -f "$ts_out.orig"
    fi
}

# The fault_sweep recovery curve.
pin_timeseries fault_recovery_smoke fault_sweep
# The bad-day availability/latency recovery curves (per scenario).
pin_timeseries bad_day_smoke bad_day
# The fault-off cluster walk's latency and hit-rate curves.
pin_timeseries cluster_tail_smoke cluster_tail

echo "goldens updated; review and commit tests/golden/*.json(l)"
