#!/usr/bin/env python3
"""Expected-diagnostic harness for the mercury_lint fixture corpus.

Each fixture under fixtures/ carries a checked-in `.expected` golden
listing `<line> <rule>` pairs. The harness runs mercury_lint over
every fixture and fails on any missing or extra diagnostic.

Usage: run_lint_fixtures.py
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "lint", "mercury_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

FINDING_RE = re.compile(r"^(.*):(\d+): \[([\w-]+)\]")


def read_expected(path):
    expected = set()
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            lineno, rule = raw.split()
            expected.add((int(lineno), rule))
    return expected


def lint(fixture):
    proc = subprocess.run(
        [sys.executable, LINT, fixture],
        capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        print(proc.stdout, proc.stderr, sep="\n")
        raise RuntimeError(
            f"mercury_lint exited {proc.returncode} on {fixture}")
    got = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            got.add((int(m.group(2)), m.group(3)))
    return got


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    fixtures = sorted(
        name for name in os.listdir(FIXTURES)
        if name.endswith((".cc", ".hh")))
    if not fixtures:
        print("no fixtures found under", FIXTURES)
        return 1

    failures = 0
    for name in fixtures:
        fixture = os.path.join(FIXTURES, name)
        expected = read_expected(fixture + ".expected")
        got = lint(fixture)
        missing = expected - got
        extra = got - expected
        if missing or extra:
            failures += 1
            print(f"FAIL {name}")
            for lineno, rule in sorted(missing):
                print(f"  missing  line {lineno}: [{rule}]")
            for lineno, rule in sorted(extra):
                print(f"  extra    line {lineno}: [{rule}]")
        else:
            print(f"ok   {name} ({len(expected)} diagnostics)")

    if failures:
        print(f"{failures}/{len(fixtures)} fixtures failed")
        return 1
    print(f"all {len(fixtures)} fixtures match their goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
