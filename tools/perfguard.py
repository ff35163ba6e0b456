#!/usr/bin/env python3
"""Guard the simulator's host performance against regressions.

Compares a freshly-measured BENCH_selfbench.json against the
committed baseline and flags any rate-like field (one ending in
`_per_sec`) that dropped by more than the tolerance. Wall-clock (`_ms`)
and ratio fields are never compared: they depend on point counts and
job counts, which differ between smoke and full runs, while
per-second rates measure the same inner loops at any size.

    perfguard.py baseline.json fresh.json [--tolerance 0.25]

Rates only compare on like hardware and builds, so each report
carries a host fingerprint (`host`: nproc, compiler, build_type). A
regression fails the guard only when the two fingerprints match;
otherwise it is reported as advisory and the exit code stays 0.

The default tolerance is 25% -- generous on purpose, because these
are host-dependent numbers and CI machines are noisy; the guard is
for "the event queue got 3x slower" regressions, not 5% jitter.
When the two files disagree on their `smoke` flag the tolerance is
doubled: smoke runs do less warmup, so their rates sit further from
the full run's steady state.

Exit codes: 0 ok (or regressions on a different host, advisory), 1 at
least one rate regressed on a matching host, 2 usage/parse error or
missing baseline.
"""

import argparse
import json
import os
import sys


def rate_fields(report, prefix=""):
    """Flatten to {dotted.path: value} keeping only numeric leaves."""
    out = {}
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(rate_fields(value, f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            out[path] = float(value)
    return out


FINGERPRINT_KEYS = ("nproc", "compiler", "build_type")


def fingerprint(report):
    """The host fingerprint of a report, or None if it has none."""
    host = report.get("host")
    if not isinstance(host, dict):
        return None
    return tuple(host.get(key) for key in FINGERPRINT_KEYS)


def describe(fp):
    if fp is None:
        return "none"
    return ", ".join(f"{k}={v}" for k, v in zip(FINGERPRINT_KEYS, fp))


def main():
    parser = argparse.ArgumentParser(
        description="Compare selfbench rates against a baseline."
    )
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="max relative rate drop before failing (default 0.25)",
    )
    args = parser.parse_args()

    if not os.path.exists(args.baseline):
        print(f"perfguard: no baseline at {args.baseline}", file=sys.stderr)
        return 2

    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        with open(args.fresh) as fh:
            fresh = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perfguard: {err}", file=sys.stderr)
        return 2

    tolerance = args.tolerance
    if bool(baseline.get("smoke")) != bool(fresh.get("smoke")):
        tolerance *= 2
        print(
            "perfguard: smoke flags differ between baseline and "
            f"fresh run; tolerance doubled to {tolerance:.0%}"
        )

    old_fp = fingerprint(baseline)
    new_fp = fingerprint(fresh)
    gating = old_fp is not None and old_fp == new_fp
    if not gating:
        print(
            "perfguard: host fingerprints differ (baseline: "
            f"{describe(old_fp)}; fresh: {describe(new_fp)}); "
            "regressions are advisory"
        )

    old = rate_fields(baseline)
    new = rate_fields(fresh)
    regressions = []
    for path in sorted(old):
        if not path.endswith("_per_sec"):
            continue
        if path not in new:
            print(f"perfguard: {path} missing from fresh run")
            regressions.append(path)
            continue
        if old[path] <= 0:
            continue
        ratio = new[path] / old[path]
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = "REGRESSED"
            regressions.append(path)
        print(
            f"perfguard: {path:45s} {old[path]:14.0f} ->"
            f" {new[path]:14.0f}  ({ratio:6.2f}x) {status}"
        )

    for path in sorted(set(new) - set(old)):
        if path.endswith("_per_sec"):
            print(f"perfguard: {path} new in fresh run (no baseline)")

    if regressions:
        print(
            f"perfguard: {len(regressions)} rate(s) regressed more "
            f"than {tolerance:.0%} vs {args.baseline}"
            + ("" if gating else " (advisory: different host)"),
            file=sys.stderr,
        )
        return 1 if gating else 0
    print(f"perfguard: all rates within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
