#!/usr/bin/env python3
"""Host-memory footprint gate: run one command and bound its peak RSS.

Usage: run_footprint.py MAX_MB COMMAND [ARGS...]

Runs COMMAND with its stdout discarded and reads the child's own
ru_maxrss from wait4(), so neither this wrapper nor other tests count
towards the figure. Fails when the command fails or when its peak
resident set exceeds MAX_MB (ru_maxrss / 1024). Sanitizer shadow
memory inflates RSS, so the gate is only registered for unsanitized
builds.
"""

import os
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    max_mb = float(argv[1])
    command = argv[2:]

    child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    # wait4 reaped the child; record that so Popen does not wait again.
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        print(f"footprint: {command[0]} exited {child.returncode}",
              file=sys.stderr)
        return 1

    peak_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    name = os.path.basename(command[0])
    verdict = "ok" if peak_mb <= max_mb else "OVER"
    print(f"footprint: {name} peak RSS {peak_mb:.1f} MB "
          f"(limit {max_mb:g} MB) {verdict}")
    return 0 if peak_mb <= max_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
