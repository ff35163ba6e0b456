#!/usr/bin/env bash
# Correctness gate for the Mercury simulator.
#
# Runs, in order:
#   1. the asan-ubsan preset: configure, build (-Werror), full ctest
#      under AddressSanitizer + UBSan with expensive invariant checks
#      (MERCURY_EXTRA_CHECKS) compiled in;
#   2. the tsan preset: golden + parallel-sweep determinism suites
#      and the thread-pool unit tests under ThreadSanitizer (the
#      `--jobs` machinery must be race-free, not just byte-stable);
#   2b. the tracer compiled out (-DMERCURY_TRACING=OFF, -Werror):
#      build everything and run the golden label, so the off
#      configuration stays warning-free and byte-identical;
#   3. the timeseries label (windowed-JSONL golden, --timeseries-out
#      jobs-invariance, Chrome-trace exporter) under both the release
#      and asan-ubsan builds;
#   4. smoke reproducibility of the fault_sweep and bad_day benches
#      (two runs byte-identical) and the fault/resilience label
#      (`ctest -L fault`): replication, hedging, shedding and the
#      bad-day recovery-curve golden under asan-ubsan;
#   5. a perf smoke: the release selfbench --smoke must run and emit
#      well-formed JSON, and its per-second rates must stay within
#      tolerance of the committed BENCH_selfbench.json
#      (tools/perfguard.py; a hard failure when the host fingerprint
#      -- nproc, compiler, build type -- matches the baseline's,
#      advisory otherwise; wall-clock fields are never compared). A
#      missing baseline fails the stage;
#   6. the static-analysis label (`ctest -L lint`): the mercury_lint
#      fixture goldens, the repo-clean check and the suppression
#      budget;
#   7. clang-tidy over src/ against the asan-ubsan compile database
#      (a hard failure when installed; skipped with a warning when
#      not -- the CI image may not ship it);
#   8. the project-specific lint rules in tools/lint/mercury_lint.py
#      over src/ and bench/, plus the waiver-budget ratchet;
#   9. the reach ratchet (`scripts/coverage.sh --reach`: every src
#      function that no bench, example or simbench workload runs must
#      be allowlisted with a reason), about three minutes of coverage
#      builds and runs.
#
# The golden observability suite (`ctest -L golden`) runs inside both
# the asan-ubsan ctest pass and an explicit release-preset stage, so a
# stats drift fails this gate under either compiler mode. That stage
# first builds every target, tests included, at -O3 with -Werror. The line
# coverage gate lives in scripts/coverage.sh and does not run here.
# Stage 6 checks the reach report's logic on a canned fixture.
# --skip-build runs only stages 6 to 8: the others build and run.
#
# Fails on the first stage that reports a problem. Usage:
#   scripts/check.sh [--skip-build]

set -u -o pipefail

cd "$(dirname "$0")/.."

skip_build=0
for arg in "$@"; do
    case "$arg" in
      --skip-build) skip_build=1 ;;
      *) echo "usage: scripts/check.sh [--skip-build]" >&2; exit 2 ;;
    esac
done

failures=0

note() { printf '\n== %s ==\n' "$*"; }

if [ "$skip_build" -eq 0 ]; then
    note "asan-ubsan build + tests"
    if ! cmake --preset asan-ubsan; then
        echo "check.sh: asan-ubsan configure failed" >&2
        exit 1
    fi
    if ! cmake --build --preset asan-ubsan -j "$(nproc)"; then
        echo "check.sh: asan-ubsan build failed (warnings are errors)" >&2
        exit 1
    fi
    if ! ctest --preset asan-ubsan; then
        echo "check.sh: tests failed under asan-ubsan" >&2
        exit 1
    fi

    # The golden observability dumps must be byte-stable across
    # presets: run just the golden label again under release. (The
    # asan-ubsan ctest above already covered the sanitized build.)
    note "golden stats dumps under the release preset"
    if ! cmake --preset release; then
        echo "check.sh: release configure failed" >&2
        exit 1
    fi
    # Every target, tests included, so that code only the tests
    # compile also builds at -O3 with -Werror.
    if ! cmake --build --preset release -j "$(nproc)"; then
        echo "check.sh: release build failed (warnings are errors)" >&2
        exit 1
    fi
    if ! ctest --test-dir build/release -L golden --output-on-failure; then
        echo "check.sh: golden suite failed under release" >&2
        exit 1
    fi

    # The tracer compiled out: MERCURY_TRACE_SPAN's off form must
    # leave no -Werror warning behind, and the goldens must not move.
    note "tracing-off build (-Werror) + golden suite"
    if ! cmake -S . -B build/tracing-off -DMERCURY_TRACING=OFF \
            -DMERCURY_WERROR=ON; then
        echo "check.sh: tracing-off configure failed" >&2
        exit 1
    fi
    if ! cmake --build build/tracing-off -j "$(nproc)"; then
        echo "check.sh: tracing-off build failed (warnings are" \
             "errors)" >&2
        exit 1
    fi
    if ! ctest --test-dir build/tracing-off -L golden \
            --output-on-failure; then
        echo "check.sh: golden suite failed with tracing off" >&2
        exit 1
    fi

    # Time-resolved telemetry: the windowed-JSONL golden, the
    # --jobs invariance of --timeseries-out, and the Chrome-trace
    # exporter, under both the release and sanitized builds (the
    # sampler must be deterministic in either).
    note "timeseries suite (release + asan-ubsan)"
    if ! ctest --test-dir build/release -L timeseries \
            --output-on-failure; then
        echo "check.sh: timeseries suite failed under release" >&2
        exit 1
    fi
    if ! ctest --test-dir build/asan-ubsan -L timeseries \
            --output-on-failure; then
        echo "check.sh: timeseries suite failed under asan-ubsan" >&2
        exit 1
    fi

    note "fault_sweep smoke (runs + is deterministic)"
    sweep=build/asan-ubsan/bench/fault_sweep
    if ! "$sweep" --smoke > /tmp/mercury-fault-sweep-1.txt || \
       ! "$sweep" --smoke > /tmp/mercury-fault-sweep-2.txt; then
        echo "check.sh: fault_sweep --smoke failed" >&2
        exit 1
    fi
    if ! diff /tmp/mercury-fault-sweep-1.txt \
              /tmp/mercury-fault-sweep-2.txt; then
        echo "check.sh: fault_sweep output not reproducible" >&2
        exit 1
    fi
    echo "fault_sweep: two runs byte-identical"

    note "bad_day smoke (runs + is deterministic)"
    bad_day=build/asan-ubsan/bench/bad_day
    if ! "$bad_day" --smoke > /tmp/mercury-bad-day-1.txt || \
       ! "$bad_day" --smoke > /tmp/mercury-bad-day-2.txt; then
        echo "check.sh: bad_day --smoke failed" >&2
        exit 1
    fi
    if ! diff /tmp/mercury-bad-day-1.txt /tmp/mercury-bad-day-2.txt
    then
        echo "check.sh: bad_day output not reproducible" >&2
        exit 1
    fi
    echo "bad_day: two runs byte-identical"

    # The fault/resilience label: injector, crash/restart and
    # replication semantics, hedging, shedding, backoff properties,
    # plus the bad-day golden and determinism runs.
    note "fault suite (ctest -L fault)"
    if ! ctest --test-dir build/asan-ubsan -L fault \
            --output-on-failure; then
        echo "check.sh: fault suite failed under asan-ubsan" >&2
        exit 1
    fi

    note "tsan: determinism + golden suites + thread tests"
    if ! cmake --preset tsan; then
        echo "check.sh: tsan configure failed" >&2
        exit 1
    fi
    if ! cmake --build --preset tsan -j "$(nproc)"; then
        echo "check.sh: tsan build failed (warnings are errors)" >&2
        exit 1
    fi
    if ! ctest --test-dir build/tsan -L "golden|determinism" \
            --output-on-failure; then
        echo "check.sh: golden/determinism failed under tsan" >&2
        exit 1
    fi
    if ! ctest --test-dir build/tsan \
            -R '^ThreadPool\.' --output-on-failure; then
        echo "check.sh: thread-pool tests failed under tsan" >&2
        exit 1
    fi

    note "perf smoke (release selfbench)"
    if [ ! -f BENCH_selfbench.json ]; then
        echo "check.sh: no committed BENCH_selfbench.json baseline;" \
             "run scripts/bench.sh and commit the file it writes" >&2
        exit 1
    fi
    if ! cmake --build --preset release -j "$(nproc)" \
            --target selfbench; then
        echo "check.sh: selfbench build failed" >&2
        exit 1
    fi
    selfbench_json=/tmp/mercury-selfbench-smoke.json
    if ! ./build/release/bench/selfbench --smoke \
            --out="$selfbench_json" > /tmp/mercury-selfbench.log; then
        echo "check.sh: selfbench --smoke failed" >&2
        exit 1
    fi
    if ! python3 - "$selfbench_json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as fh:
    report = json.load(fh)
for section, keys in {
    "host": ["nproc"],
    "store": ["ops_per_sec"],
    "datapath": ["kernel_reqs_per_sec", "bypass_reqs_per_sec",
                 "batched_reqs_per_sec", "batching_speedup"],
    "sweep": ["serial_ms", "parallel_ms", "speedup", "jobs"],
}.items():
    for key in keys:
        value = report[section][key]
        assert value > 0, f"{section}.{key} = {value}"
print("selfbench JSON well-formed:",
      f"store {report['store']['ops_per_sec']:.0f} ops/s,",
      f"sweep speedup {report['sweep']['speedup']:.2f}x",
      f"at --jobs {report['sweep']['jobs']}")
PYEOF
    then
        echo "check.sh: selfbench JSON malformed" >&2
        exit 1
    fi
    # Rate regression guard: the smoke run's per-second rates must
    # stay within tolerance of the committed full-run baseline
    # (perfguard doubles its 25% slack across the smoke/full gap).
    # Guard a second run -- the first doubles as cache warmup; a
    # cold run right after the build can sit 2-3x below steady
    # state on this host and would flake the gate.
    if ! ./build/release/bench/selfbench --smoke \
            --out="$selfbench_json" >> /tmp/mercury-selfbench.log
    then
        echo "check.sh: selfbench --smoke rerun failed" >&2
        exit 1
    fi
    if ! python3 tools/perfguard.py BENCH_selfbench.json \
            "$selfbench_json"; then
        echo "check.sh: selfbench rates regressed vs committed" \
             "BENCH_selfbench.json (tools/perfguard.py)" >&2
        exit 1
    fi
else
    note "asan-ubsan build + tests (skipped)"
fi

note "static-analysis suite (ctest -L lint)"
if [ -d build/release ]; then
    if ! ctest --test-dir build/release -L lint --output-on-failure; then
        echo "check.sh: lint suite failed" >&2
        exit 1
    fi
else
    echo "build/release missing; running the fixture harness directly"
    if ! python3 tests/lint/run_lint_fixtures.py; then
        echo "check.sh: lint fixture goldens failed" >&2
        exit 1
    fi
fi

note "clang-tidy"
if command -v run-clang-tidy >/dev/null 2>&1; then
    # The asan-ubsan preset exports compile_commands.json. Findings
    # are a hard failure: the config's WarningsAsErrors covers the
    # bugprone-, performance-, and concurrency- families.
    if ! run-clang-tidy -quiet -p build/asan-ubsan \
            "$(pwd)/src/.*" > /tmp/mercury-clang-tidy.log 2>&1; then
        echo "check.sh: clang-tidy reported findings:" >&2
        grep -E "(warning|error):" /tmp/mercury-clang-tidy.log >&2 || \
            tail -50 /tmp/mercury-clang-tidy.log >&2
        exit 1
    fi
    echo "clang-tidy: clean"
elif command -v clang-tidy >/dev/null 2>&1; then
    tidy_rc=0
    while IFS= read -r src; do
        clang-tidy -p build/asan-ubsan --quiet "$src" || tidy_rc=1
    done < <(find src -name '*.cc')
    if [ "$tidy_rc" -ne 0 ]; then
        echo "check.sh: clang-tidy reported findings" >&2
        exit 1
    fi
    echo "clang-tidy: clean"
else
    echo "clang-tidy not installed; skipping (config is .clang-tidy)"
fi

note "mercury lint"
if ! python3 tools/lint/mercury_lint.py src bench; then
    failures=$((failures + 1))
fi
if ! python3 tools/lint/mercury_lint.py --budget; then
    failures=$((failures + 1))
fi

if [ "$skip_build" -eq 0 ]; then
    note "reach ratchet (scripts/coverage.sh --reach)"
    if ! scripts/coverage.sh --reach; then
        failures=$((failures + 1))
    fi
else
    note "reach ratchet (skipped)"
fi

if [ "$failures" -ne 0 ]; then
    echo
    echo "check.sh: FAILED ($failures stage(s) reported findings)" >&2
    exit 1
fi
echo
echo "check.sh: all stages clean"
