#!/usr/bin/env python3
"""Check that benches publish the rows they print as results.* stats.

Runs each BENCH --smoke --stats-json to a temporary file and requires
every key named for it to be present under "results." with a finite
number.

Usage: check_results.py BENCH KEY... [-- BENCH KEY...]...
       (each KEY without its "results." prefix)
"""

import json
import math
import os
import subprocess
import sys
import tempfile


def check(bench, keys):
    """Return the failure lines for one bench."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stats.json")
        subprocess.run([bench, "--smoke", "--stats-json=" + path],
                       check=True, stdout=subprocess.DEVNULL)
        with open(path) as f:
            stats = json.load(f)
    bad = []
    for key in keys:
        value = stats.get("results." + key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append("results.%s = %r" % (key, value))
    return ["%s: missing or not finite: %s"
            % (os.path.basename(bench), line) for line in bad]


def main(argv):
    groups = [[]]
    for arg in argv[1:]:
        if arg == "--":
            groups.append([])
        else:
            groups[-1].append(arg)
    if any(len(group) < 2 for group in groups):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    for bench, *keys in groups:
        failures += check(bench, keys)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
