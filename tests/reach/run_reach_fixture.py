#!/usr/bin/env python3
"""Check scripts/coverage.sh's reach report on a canned gcov fixture.

gcov/ holds the JSON of two objects that compile src/fixture/widget.cc:
run() ran in object A, elsewhere() only in object B, and neither ran
audit() or dead(). allowlist.json lists audit(). The report must count
elsewhere() as reached, accept the allowlisted audit(), and fail on
dead() alone; an allowlist that lists dead() too passes, and one whose
entry lacks a reason or names no function fails.

Usage: run_reach_fixture.py
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "..", "..", "scripts", "coverage.sh")
GCOV = os.path.join(HERE, "gcov")


def report(allowlist):
    proc = subprocess.run(
        ["bash", SCRIPT, "--reach-json", GCOV, "--allowlist", allowlist],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def with_entries(entries):
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as f:
        json.dump({"functions": entries}, f)
    return path


def main():
    failures = []

    def expect(cond, what, output):
        if not cond:
            failures.append("%s\n--- output ---\n%s" % (what, output))

    listed = os.path.join(HERE, "allowlist.json")
    code, out = report(listed)
    expect(code == 1, "an unlisted never-run function must fail", out)
    expect("reach: 4 src functions, 2 never run (13 lines), 1 of them "
           "allowlisted, 1 unlisted" in out, "summary line", out)
    expect("unlisted: src/fixture/widget.cc:50 fixture::dead() (3 lines)"
           in out, "dead() is the one unlisted function", out)
    expect("elsewhere" not in out,
           "a function that ran in one object is reached", out)
    expect("audit" not in out, "the allowlisted function passes", out)
    expect("stl_algobase" not in out, "only src functions count", out)

    audit = {"file": "src/fixture/widget.cc", "function": "fixture::audit()",
             "reason": "an audit that only tests run"}
    dead = {"file": "src/fixture/widget.cc", "function": "fixture::dead()",
            "reason": "kept for the fixture"}
    cases = [
        ([audit, dead], 0, "listing every never-run function passes"),
        ([audit, dict(dead, reason=" ")], 1, "an entry needs a reason"),
        ([audit, dead, dict(dead, function="fixture::gone()")], 1,
         "an entry must name a function"),
    ]
    for entries, want, what in cases:
        path = with_entries(entries)
        try:
            code, out = report(path)
        finally:
            os.unlink(path)
        expect(code == want, "%s (exit %d, want %d)" % (what, code, want),
               out)

    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
