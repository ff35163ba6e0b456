#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

Run from the repository root (builds through run.py if needed):

    python3 simbench/selftest.py [--seconds S]

For every workload it checks that
  * the run is correct (no failed check);
  * a repeat with the same seed reproduces sim_digest and every exact
    count, and the traced run's digest equals the untraced run's;
  * another seed changes the digest;
  * every metric printed is named in BENCHMARK.json with its unit, and
    --trace 0 / --trace 1 print exactly the end-to-end / per-layer sets;
  * the traced parts (workload + kvstore + devices + walk, i.e. the
    generator span plus the simulator call span) account for the
    measured loop time per request within trace.overhead_frac (with a
    5% floor).
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are simulated counts, not host times: they
# must repeat exactly for a given seed.
EXACT = [
    "kvstore.hit_rate", "kvstore.evictions",
    "cpu.instructions_per_req", "cpu.mem_ops_per_req", "cpu.stall_frac",
    "mem.l1i_miss_rate", "mem.l1d_miss_rate", "mem.l2_miss_rate",
    "mem.fills_per_req", "mem.dram.calls_per_req",
    "mem.dram.row_hit_rate", "mem.flash.calls_per_req",
    "mem.flash.write_amplification", "mem.flash.gc_moves",
    "net.drops_per_kreq", "net.retransmits_per_kreq",
    "cluster.hedges_per_req", "cluster.retries_per_req",
    "cluster.hints_queued", "cluster.availability",
    "cluster.sim_p99_us", "cluster.hottest_node_share",
]


class Run:
    def __init__(self, workload, seed, seconds, trace):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                             text=True)
        if out.returncode != 0:
            sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd),
                                               out.returncode, out.stderr))
        self.lines = out.stdout.strip().splitlines()
        self.result = json.loads(self.lines[-1])
        self.metrics = {k: v["value"]
                        for k, v in self.result["metrics"].items()}
        self.units = {k: v["unit"]
                      for k, v in self.result["metrics"].items()}
        self.digest = self.field(r"^sim_digest (0x[0-9a-f]+)$")
        self.accounting = self.field(
            r"^accounting parts_us=([\d.]+) span_us=([\d.]+)$", 2)

    def field(self, pattern, groups=1):
        for line in self.lines:
            m = re.match(pattern, line)
            if m:
                return m.group(1) if groups == 1 else \
                    tuple(float(g) for g in m.groups())
        return None


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: {m["name"]: m for m in spec["end_to_end"]},
            1: {m["name"]: m for m in spec["per_layer"]}}
    for metrics in sets.values():
        for m in metrics.values():
            check(m.get("better") in ("higher", "lower"),
                  "%s has a direction" % m["name"])

    for workload in [w["name"] for w in spec["workloads"]]:
        seed = 7
        plain = Run(workload, seed, args.seconds, 0)
        traced = Run(workload, seed, args.seconds, 1)
        again = Run(workload, seed, args.seconds, 1)
        other = Run(workload, seed + 1, args.seconds, 0)

        for trace, run in ((0, plain), (1, traced), (0, other)):
            r = run.result
            check(r["correct"] and r["failed"] == 0 and
                  r["attempted"] >= 1,
                  "%s trace=%d correct, failed 0 of %d"
                  % (workload, trace, r["attempted"]))
            check(set(run.metrics) == set(sets[trace]),
                  "%s trace=%d prints exactly the BENCHMARK.json set"
                  % (workload, trace))
            for name, unit in run.units.items():
                check(unit == sets[trace][name]["unit"],
                      "%s %s unit %s" % (workload, name, unit))

        check(plain.digest is not None and plain.digest == traced.digest,
              "%s traced digest %s == untraced %s"
              % (workload, traced.digest, plain.digest))
        check(traced.digest == again.digest,
              "%s same seed reproduces the digest" % workload)
        for name in EXACT:
            check(traced.metrics[name] == again.metrics[name],
                  "%s %s repeats exactly (%r)"
                  % (workload, name, traced.metrics[name]))
        check(other.digest != plain.digest,
              "%s another seed changes the digest" % workload)

        parts, span = traced.accounting
        tolerance = max(abs(traced.metrics["trace.overhead_frac"]), 0.05)
        check(abs(span - parts) <= tolerance * span,
              "%s traced parts %.2f us account for the %.2f us span "
              "within %.3f" % (workload, parts, span, tolerance))
    print("all self-tests passed")


if __name__ == "__main__":
    main()
