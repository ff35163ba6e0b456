#!/usr/bin/env python3
"""mercury_lint v2 -- project-specific static analysis for the
Mercury simulator.

The rules run as masked-text patterns with no dependencies beyond
Python (engine_regex.py); the fixture corpus under tests/lint pins
their verdicts.

Rules (suppress one finding with `// lint: allow(<rule>)` on the same
line or the line above; every waiver is counted against
tools/lint/budget.json, checked by --budget):

  API discipline      tick-api, tick-cast, telemetry-json
  accounting          result-class
  determinism family  wall-clock, host-rng, pointer-order,
                      unordered-iter

The determinism family is the static half of the reproducibility
contract: goldens and timeline digests catch nondeterminism after the
fact, these rules ban its sources (host clocks, host RNG, pointer-
keyed ordering, unordered iteration) before they can reach output.

Usage:
  mercury_lint.py [options] <dir-or-file> [...]
  mercury_lint.py --budget [<dirs>]       # waiver-budget gate
  mercury_lint.py --pin-budget [<dirs>]   # re-pin after review
  mercury_lint.py --list-rules

Options:
  --rules r1,r2               restrict to a rule subset

Exits 1 on any unsuppressed finding (or budget violation), 2 on
usage errors.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import budget as budget_mod   # noqa: E402
import engine_regex           # noqa: E402
import rules                  # noqa: E402

SOURCE_SUFFIXES = (".hh", ".h", ".hpp", ".cc", ".cpp")


def collect_files(args_paths, repo_root):
    """(rel, abs) pairs for every source file under the given paths,
    sorted for stable output."""
    found = []
    for arg in args_paths:
        p = os.path.abspath(arg)
        if os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(SOURCE_SUFFIXES):
                        found.append(os.path.join(dirpath, name))
        elif os.path.isfile(p):
            found.append(p)
        else:
            print(f"warning: no such path {arg}", file=sys.stderr)
    pairs = []
    for path in found:
        rel = os.path.relpath(path, repo_root)
        if rel.startswith(".."):
            rel = path
        pairs.append((rel.replace(os.sep, "/"), path))
    return pairs


def load_sources(pairs):
    loaded = []
    for rel, path in pairs:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                raw = fh.read()
        except OSError as err:
            print(f"warning: cannot read {rel}: {err}",
                  file=sys.stderr)
            continue
        loaded.append((rel, path, rules.SourceText(raw)))
    return loaded


def run_lint(sources, selected):
    """Lint all sources; returns the findings."""
    findings = []
    for rel, _, src in sources:
        engine_regex.lint_file(rel, src, findings, selected)
    return findings


def apply_suppressions(findings, sources):
    raw_by_rel = {rel: src.raw_lines for rel, _, src in sources}
    kept = []
    for f in findings:
        raw_lines = raw_by_rel.get(f.path)
        if raw_lines is not None and \
                f.rule in rules.allowed_rules_at(raw_lines, f.line):
            continue
        kept.append(f)
    return kept


def main(argv):
    parser = argparse.ArgumentParser(
        prog="mercury_lint.py", add_help=True,
        description="Project-specific lint rules for the Mercury "
                    "simulator (see module docstring).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--rules", metavar="r1,r2",
                        help="comma-separated rule subset")
    parser.add_argument("--budget", action="store_true",
                        help="check allow() waivers against "
                             "tools/lint/budget.json")
    parser.add_argument("--pin-budget", action="store_true",
                        help="rewrite budget.json with the current "
                             "waiver counts")
    parser.add_argument("--list-rules", action="store_true")
    opts = parser.parse_args(argv[1:])

    if opts.list_rules:
        for name in sorted(rules.RULES):
            print(f"{name:16s} {rules.RULES[name]}")
        return 0

    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

    if opts.budget or opts.pin_budget:
        paths = opts.paths or \
            [os.path.join(repo_root, "src"),
             os.path.join(repo_root, "bench")]
        sources = load_sources(collect_files(paths, repo_root))
        files = [(rel, src) for rel, _, src in sources]
        if opts.pin_budget:
            counts, unknown = budget_mod.count_allow_waivers(files)
            for rel, lineno, rule in unknown:
                print(f"{rel}:{lineno}: allow() names unknown rule "
                      f"'{rule}'", file=sys.stderr)
            if unknown:
                return 1
            budget_mod.pin(counts)
            total = sum(counts.values())
            print(f"budget pinned: {total} waiver(s) across "
                  f"{len(counts)} rule(s) -> {budget_mod.BUDGET_FILE}")
            return 0
        ok, lines = budget_mod.check(files)
        for line in lines:
            print(line)
        if not ok:
            print("\nmercury_lint: waiver budget violated",
                  file=sys.stderr)
            return 1
        print("mercury_lint: waiver budget ok "
              f"({len(files)} files)")
        return 0

    if not opts.paths:
        parser.print_usage(sys.stderr)
        return 2

    selected = set(rules.RULES)
    if opts.rules:
        selected = {r.strip() for r in opts.rules.split(",")}
        unknown = selected - set(rules.RULES)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    sources = load_sources(collect_files(opts.paths, repo_root))
    findings = run_lint(sources, selected)
    findings = apply_suppressions(findings, sources)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")

    if findings:
        print(f"\nmercury_lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"mercury_lint: clean ({len(sources)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
