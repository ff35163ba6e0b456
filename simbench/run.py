#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the repository root:

    python3 simbench/run.py --workload mercury_small_get --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), in a
RelWithDebInfo configuration of simbench/CMakeLists.txt. Build output
goes to stderr; stdout is the benchmark's own, whose last line is the
JSON result. Exits non-zero, printing no result, if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "simbench")


def build(out):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, **quiet).returncode != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    return subprocess.run(["cmake", "--build", out, "-j", jobs],
                          **quiet).returncode == 0


def main():
    out = build_dir()
    if not build(out):
        print("simbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "simbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
