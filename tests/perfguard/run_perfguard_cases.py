#!/usr/bin/env python3
"""Exit-code checks for tools/perfguard.py on the JSON fixtures here.

Every fixture is compared against baseline.json (4 hardware threads,
full run). Fixtures on the same host gate; drop30_other_host.json
differs only in its fingerprint, so its regression is advisory.
drop10.json also halves a ratio field, which perfguard must ignore.

Usage: run_perfguard_cases.py
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
PERFGUARD = os.path.join(REPO, "tools", "perfguard.py")

# (what the case checks, baseline, fresh, expected exit code)
CASES = (
    ("a baseline rate missing from the fresh run fails",
     "baseline.json", "missing_rate.json", 1),
    ("a 30% rate drop on the same host fails",
     "baseline.json", "drop30.json", 1),
    ("a 30% rate drop on another host is advisory",
     "baseline.json", "drop30_other_host.json", 0),
    ("a 10% rate drop is within tolerance",
     "baseline.json", "drop10.json", 0),
    ("a missing baseline is a usage error",
     "no_such_baseline.json", "drop10.json", 2),
)


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    failed = 0
    for what, baseline, fresh, want in CASES:
        proc = subprocess.run(
            [sys.executable, PERFGUARD, os.path.join(HERE, baseline),
             os.path.join(HERE, fresh)],
            capture_output=True, text=True, check=False)
        if proc.returncode == want:
            print(f"ok   {what} (exit {want})")
            continue
        failed += 1
        print(f"FAIL {what}: exit {proc.returncode}, want {want}")
        print(proc.stdout, proc.stderr, sep="\n")
    if failed:
        print(f"{failed}/{len(CASES)} perfguard cases failed")
        return 1
    print(f"all {len(CASES)} perfguard cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
