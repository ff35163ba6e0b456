#!/usr/bin/env bash
# Coverage gates, both on the `coverage` preset (gcov instrumentation).
#
# Line coverage (the default): runs the full test suite, then enforces
# a minimum line-coverage threshold over src/sim and src/kvstore --
# the layers the golden and property suites claim to lock down. Uses
# gcovr when installed; otherwise falls back to aggregating raw
# `gcov` summaries so the gate still runs on images without gcovr.
#
# Reach (--reach): which src functions does no bench, example or
# simbench workload run? Runs no test. It runs every bench binary at
# --smoke with --stats-json, --timeseries-out, --trace-out,
# --trace-chrome and --jobs 2 (the google-benchmark micro suites with
# a 1 ms minimum time), the four examples, and the three simbench
# workloads at --trace 0 and 1 for 2 s each from a --coverage build of
# simbench/CMakeLists.txt in build/coverage-simbench. It then folds
# the `gcov --json-format --stdout` function counts of every object,
# keeping a function's largest count over the objects that compile it
# (the test objects run nothing here, but they compile the header
# functions only tests call), and fails when a src function that
# never ran is missing from the allowlist (tools/reach_allowlist.json,
# each entry with its reason). It also fails on an allowlist entry
# that names no function. From clean, a run takes about three minutes
# on 4 hardware threads. Function counts say nothing of branches: a
# function that runs with one of its paths never taken counts as
# reached.
#
# Usage: scripts/coverage.sh [--min PCT] [--skip-build]
#        scripts/coverage.sh --reach [--skip-build] [--allowlist FILE]
#        scripts/coverage.sh --reach-json DIR [--allowlist FILE]
# --skip-build reuses the counters of the last run (with --reach, of
# the last --reach run: a test run adds its counts). --reach-json DIR
# skips the build, the runs and gcov, and applies the reach report to
# the gcov JSON documents in DIR (*.json; tests/reach holds a fixture).

set -u -o pipefail

cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/coverage.sh [--min PCT] [--skip-build]" >&2
    echo "       scripts/coverage.sh --reach [--skip-build]" \
         "[--allowlist FILE]" >&2
    echo "       scripts/coverage.sh --reach-json DIR" \
         "[--allowlist FILE]" >&2
    exit 2
}

min_pct=75
skip_build=0
reach=0
reach_json=
allowlist=tools/reach_allowlist.json
while [ "$#" -gt 0 ]; do
    case "$1" in
      --min) [ "$#" -ge 2 ] || usage; min_pct="$2"; shift 2 ;;
      --skip-build) skip_build=1; shift ;;
      --reach) reach=1; shift ;;
      --reach-json) [ "$#" -ge 2 ] || usage; reach_json="$2"; shift 2 ;;
      --allowlist) [ "$#" -ge 2 ] || usage; allowlist="$2"; shift 2 ;;
      *) usage ;;
    esac
done

build_dir=build/coverage
simbench_dir=build/coverage-simbench

# The reach report: merge gcov JSON function records over objects and
# compare the src functions that never ran with the allowlist.
reach_report() {
    python3 - "$1" "$allowlist" <<'EOF'
import glob, json, os, sys

json_dir, allowlist_path = sys.argv[1], sys.argv[2]
root = os.getcwd()


def documents(path):
    """Every JSON document in a file (gcov --stdout concatenates them)."""
    with open(path) as f:
        text = f.read()
    decoder, pos = json.JSONDecoder(), 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return
        doc, pos = decoder.raw_decode(text, pos)
        yield doc


def src_path(doc, name):
    path = os.path.normpath(os.path.join(
        doc.get("current_working_directory", root), name))
    rel = os.path.relpath(path, root)
    return rel if rel.startswith("src/") else None


# (file, first line) -> [largest count, {demangled names}, lines]. One
# source function is one key however many objects compile it and
# whatever its template instantiations or constructor variants.
functions = {}
paths = sorted(glob.glob(os.path.join(json_dir, "*.json")))
if not paths:
    sys.exit(f"coverage.sh: no gcov JSON under {json_dir}")
for path in paths:
    for doc in documents(path):
        for record in doc.get("files", []):
            src = src_path(doc, record["file"])
            if src is None:
                continue
            for fn in record.get("functions", []):
                key = (src, fn["start_line"])
                entry = functions.setdefault(
                    key, [0, set(), fn["end_line"] - fn["start_line"] + 1])
                entry[0] = max(entry[0], fn["execution_count"])
                entry[1].add(fn.get("demangled_name", fn["name"]))

with open(allowlist_path) as f:
    allowlist = json.load(f)["functions"]
bad_entries = [e for e in allowlist
               if not e.get("file") or not e.get("function") or
               not str(e.get("reason", "")).strip()]
allowed = {(e["file"], e["function"]) for e in allowlist
           if e not in bad_entries}

never, unlisted, matched, reached_listed = [], [], set(), []
for (src, line), (count, names, lines) in sorted(functions.items()):
    listed = {(src, name) for name in names} & allowed
    matched |= listed
    if count:
        reached_listed += sorted(listed)
        continue
    never.append(lines)
    if not listed:
        unlisted.append((src, line, min(names), lines))
stale = sorted(allowed - matched)

print(f"reach: {len(functions)} src functions, {len(never)} never run "
      f"({sum(never)} lines), {len(never) - len(unlisted)} of them "
      f"allowlisted, {len(unlisted)} unlisted")
for src, line, name, lines in unlisted:
    print(f"  unlisted: {src}:{line} {name} ({lines} lines)")
for entry in bad_entries:
    print(f"  allowlist entry without file, function or reason: {entry}")
for src, name in stale:
    print(f"  allowlist entry names no function: {src} {name}")
for src, name in reached_listed:
    print(f"  note: allowlisted but reached (drop the entry): {src} {name}")
if unlisted or bad_entries or stale:
    sys.exit("coverage.sh: reach FAILED -- every never-run src function "
             "needs an allowlist entry with a reason, and every entry "
             f"a function ({allowlist_path})")
print("coverage.sh: reach OK")
EOF
}

if [ -n "$reach_json" ]; then
    reach_report "$reach_json"
    exit $?
fi

if [ "$reach" -eq 1 ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    if [ "$skip_build" -eq 0 ]; then
        cmake --preset coverage || exit 1
        cmake --build --preset coverage -j "$(nproc)" || exit 1
        cmake -S simbench -B "$simbench_dir" -DCMAKE_BUILD_TYPE=Debug \
              -DCMAKE_CXX_FLAGS="--coverage -O0 -g" \
              -DCMAKE_EXE_LINKER_FLAGS=--coverage || exit 1
        cmake --build "$simbench_dir" -j "$(nproc)" || exit 1
        find "$build_dir" "$simbench_dir" -name '*.gcda' -delete

        # Each bench runs in a scratch directory: selfbench writes its
        # JSON to the working directory.
        runs=$tmp/runs
        mkdir -p "$runs"
        failed=0
        for bin in "$PWD/$build_dir"/bench/*; do
            [ -x "$bin" ] && [ -f "$bin" ] || continue
            name=$(basename "$bin")
            extra=()
            case "$name" in
              micro_*) extra=(--benchmark_min_time=0.001) ;;
            esac
            if ! (cd "$runs" && "$bin" --smoke \
                    --stats-json="$name.json" \
                    --timeseries-out="$name.ts.jsonl" \
                    --trace-out="$name.trace.jsonl" \
                    --trace-chrome="$name.chrome.json" \
                    --jobs 2 "${extra[@]}" > "$name.out" 2>&1); then
                echo "coverage.sh: $name failed:" >&2
                tail -5 "$runs/$name.out" >&2
                failed=1
            fi
        done
        for bin in "$build_dir"/examples/*; do
            [ -x "$bin" ] && [ -f "$bin" ] || continue
            "$bin" > /dev/null || { echo "coverage.sh: $bin failed" >&2
                                    failed=1; }
        done
        for workload in mercury_small_get iridium_mixed_4k \
                        cluster_bad_day; do
            for trace in 0 1; do
                "$simbench_dir"/simbench --workload "$workload" \
                    --seed 1 --seconds 2 --trace "$trace" > /dev/null ||
                    { echo "coverage.sh: simbench $workload" \
                           "--trace $trace failed" >&2; failed=1; }
            done
        done
        [ "$failed" -eq 0 ] || exit 1
    fi

    # An object without counters (nothing that links it ran) reads as
    # never executed, which gcov notes on stderr.
    json=$tmp/gcov
    mkdir -p "$json"
    n=0
    while IFS= read -r gcno; do
        n=$((n + 1))
        if ! gcov --json-format --stdout -o "$(dirname "$gcno")" \
                "$gcno" > "$json/$n.json" 2> /dev/null; then
            echo "coverage.sh: gcov failed on $gcno" >&2
            exit 1
        fi
    done < <(find "$build_dir" "$simbench_dir" -name '*.gcno' | sort)
    reach_report "$json"
    exit $?
fi

if [ "$skip_build" -eq 0 ]; then
    cmake --preset coverage || exit 1
    cmake --build --preset coverage -j "$(nproc)" || exit 1
    # Stale counters from earlier runs would inflate the numbers.
    find "$build_dir" -name '*.gcda' -delete
    ctest --preset coverage || exit 1
fi

if command -v gcovr >/dev/null 2>&1; then
    echo "== gcovr (fail under ${min_pct}% line coverage) =="
    gcovr --root . \
          --filter 'src/sim/.*' --filter 'src/kvstore/.*' \
          --fail-under-line "$min_pct" \
          --print-summary \
          "$build_dir"
    exit $?
fi

echo "gcovr not installed; falling back to raw gcov aggregation"
python3 - "$build_dir" "$min_pct" <<'EOF'
import glob, os, re, subprocess, sys

build_dir, min_pct = sys.argv[1], float(sys.argv[2])
root = os.getcwd()

# Coverage counters for the objects of the gated layers only.
gcda = []
for layer in ("src/sim", "src/kvstore"):
    gcda += glob.glob(f"{build_dir}/{layer}/**/*.gcda", recursive=True)
if not gcda:
    sys.exit(f"coverage.sh: no .gcda files under {build_dir}; "
             "did the coverage build run?")

covered = {}   # source path -> (executed_lines, total_lines)
for path in gcda:
    out = subprocess.run(
        ["gcov", "-n", "-o", os.path.dirname(path), path],
        capture_output=True, text=True).stdout
    for m in re.finditer(
            r"File '([^']+)'\nLines executed:([0-9.]+)% of (\d+)", out):
        src, pct, total = m.group(1), float(m.group(2)), int(m.group(3))
        src = os.path.relpath(os.path.join(root, src), root)
        if not (src.startswith("src/sim/") or
                src.startswith("src/kvstore/")):
            continue
        executed = round(pct * total / 100.0)
        # The same source shows up once per including object; keep the
        # best-covered view (counters are per-object, not merged).
        prev = covered.get(src)
        if prev is None or executed > prev[0]:
            covered[src] = (executed, total)

total = sum(t for _, t in covered.values())
executed = sum(e for e, _ in covered.values())
pct = 100.0 * executed / total if total else 0.0
for src in sorted(covered):
    e, t = covered[src]
    print(f"  {src}: {100.0 * e / t if t else 0.0:5.1f}% ({e}/{t})")
print(f"line coverage over src/sim + src/kvstore: {pct:.1f}% "
      f"({executed}/{total})")
if pct < min_pct:
    sys.exit(f"coverage.sh: FAILED -- {pct:.1f}% < {min_pct:.0f}%")
print("coverage.sh: OK")
EOF
