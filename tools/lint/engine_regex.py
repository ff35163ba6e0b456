"""Rule engine for mercury_lint.

Runs everywhere Python runs: no libclang required. The v2 rewrite
keeps this engine lexically honest -- every structural pattern is
matched against SourceText's masked views (comments and string
contents blanked), which kills the v1 false-positive classes where a
comment or log string mentioning `rand()` or `uint64_t tick` tripped
a rule. It is still scope-insensitive by design: a false positive is
an invitation to rename, and `// lint: allow(<rule>)` exists.
tests/lint pins the verdicts on the fixture corpus.
"""

import re

import rules
from rules import Finding

# --- tick-api -------------------------------------------------------

TIME_NAME_RE = re.compile(
    r"\b(?:std::)?uint64_t\s+(\w*(?:when|tick|deadline|latency)\w*|now)\b",
    re.IGNORECASE)
TIME_RETURN_RE = re.compile(
    r"^\s*(?:std::)?uint64_t\s+(\w*(?:When|Tick|Deadline|Latency)\w*|now)"
    r"\s*\(")

# --- tick-cast ------------------------------------------------------

TICK_CAST_RE = re.compile(r"static_cast<\s*Tick\s*>\s*\(")
DOUBLEISH_RE = re.compile(
    r"(\bdouble\b|\bfloat\b|\d\.\d|\bticksTo|Seconds\b|Fraction\b|"
    r"\bratio\b|\bscale\b|\bfreq|Hz\b|\*\s*1e\d|\b\w*[Ff]actor\w*\b)")

# --- telemetry-json -------------------------------------------------

JSON_KEY_LITERAL_RE = re.compile(r'\\"[A-Za-z_][A-Za-z0-9_]*\\":')
TELEMETRY_CALL_RE = re.compile(
    r"\b(?:" + "|".join(rules.PRINTF_FAMILY) + r")\s*\(")

# --- wall-clock -----------------------------------------------------

# Bare `clock()` is deliberately absent: a text pattern cannot tell
# host ::clock() from a member function named clock (e.g. the
# store's simulated-seconds accessor).
WALL_CLOCK_RE = re.compile(
    r"\bstd::chrono::(?:steady_clock|system_clock|"
    r"high_resolution_clock)\b|"
    r"(?<![\w.:])(?:time|clock_gettime|gettimeofday|timespec_get)"
    r"\s*\(")

# --- host-rng -------------------------------------------------------

HOST_RNG_CALL_RE = re.compile(r"(?<![\w.:])s?rand\s*\(")
HOST_RNG_TYPE_RE = re.compile(
    r"\bstd::random_device\b|(?<!:)\brandom_device\b|"
    r"\bdefault_random_engine\b")
# An mt19937 constructed with no seed expression: `mt19937 gen;`,
# `mt19937 gen{};`, `mt19937 gen()` (the most vexing parse still
# *reads* as an unseeded generator).
UNSEEDED_MT_RE = re.compile(
    r"\bmt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\}|\(\s*\))")

# --- pointer-order --------------------------------------------------

ASSOC_OPEN_RE = re.compile(
    r"\b(?:std::)?(map|set|multimap|multiset|unordered_map|"
    r"unordered_set|unordered_multimap|unordered_multiset)\s*<")
HASH_PTR_RE = re.compile(r"\bstd::hash\s*<[^<>]*\*\s*>")

# --- unordered-iter -------------------------------------------------

UNORDERED_OPEN_RE = re.compile(
    r"\b(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^();]*?):([^();]*?)\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(\s*\)")


def _first_template_arg(code, open_end):
    """The first top-level template argument after a `<` at
    open_end-1, plus the offset one past the matching `>` (or None
    when unbalanced)."""
    depth = 1
    i = open_end
    start = i
    first = None
    while i < len(code):
        ch = code[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth == 0:
                if first is None:
                    first = code[start:i]
                return first, i + 1
        elif ch == "," and depth == 1:
            if first is None:
                first = code[start:i]
        i += 1
    return None, None


def _declared_name(code, after):
    """Identifier declared right after a closing template `>`."""
    m = re.match(r"\s*&?\s*(\w+)\s*[;={(,)]", code[after:])
    return m.group(1) if m else None


def lint_file(rel, src, findings, selected):
    """Append Findings for one file. `src` is a rules.SourceText;
    `selected` is the set of enabled rule names."""
    is_header = rel.endswith((".hh", ".h", ".hpp"))
    code_lines = src.code.splitlines()
    nc_lines = src.no_comments.splitlines()

    def emit(lineno, rule, msg):
        findings.append(Finding(rel, lineno, rule, msg))

    # ---- whole-file scans (patterns may span physical lines) ------

    if "result-class" in selected:
        findings.extend(rules.outcome_class_findings(rel, src))

    if "pointer-order" in selected:
        for m in ASSOC_OPEN_RE.finditer(src.code):
            container = m.group(1)
            arg, _ = _first_template_arg(src.code, m.end())
            if arg is not None and arg.strip().endswith("*"):
                emit(src.line_of(m.start()), "pointer-order",
                     f"{container} keyed on raw pointer values "
                     f"({arg.strip()}); host addresses differ run to "
                     f"run -- key on a stable id instead")
        for m in HASH_PTR_RE.finditer(src.code):
            emit(src.line_of(m.start()), "pointer-order",
                 "std::hash over a raw pointer type; host addresses "
                 "differ run to run -- hash a stable id instead")

    if "unordered-iter" in selected:
        unordered_names = set()
        for m in UNORDERED_OPEN_RE.finditer(src.code):
            _, after = _first_template_arg(src.code, m.end())
            if after is not None:
                name = _declared_name(src.code, after)
                if name:
                    unordered_names.add(name)
        for m in RANGE_FOR_RE.finditer(src.code):
            range_expr = m.group(2).strip()
            tail = re.search(r"(\w+)\s*$", range_expr)
            if (tail and tail.group(1) in unordered_names) or \
                    "unordered_" in range_expr:
                emit(src.line_of(m.start()), "unordered-iter",
                     "iterating an unordered container; bucket order "
                     "is nondeterministic -- sort before emitting")
        for m in BEGIN_CALL_RE.finditer(src.code):
            if m.group(1) in unordered_names:
                emit(src.line_of(m.start()), "unordered-iter",
                     f"'{m.group(1)}' is an unordered container; "
                     f"bucket order is nondeterministic -- sort "
                     f"before emitting")

    # ---- per-line scans -------------------------------------------

    wall_exempt_file = rules.exempt(rel, rules.WALL_CLOCK_EXEMPT)
    rng_exempt_file = rules.exempt(rel, rules.HOST_RNG_EXEMPT)
    tick_cast_exempt = rules.exempt(rel, rules.TICK_CAST_EXEMPT)
    telemetry_exempt = rules.exempt(rel, rules.TELEMETRY_EXEMPT)

    for idx, line in enumerate(code_lines):
        lineno = idx + 1

        if "tick-api" in selected and is_header:
            m = TIME_NAME_RE.search(line) or TIME_RETURN_RE.search(line)
            if m:
                emit(lineno, "tick-api",
                     f"time-valued API '{m.group(1)}' uses raw "
                     f"uint64_t; declare it as Tick")

        if "tick-cast" in selected and not tick_cast_exempt:
            for m in TICK_CAST_RE.finditer(line):
                operand = line[m.end():]
                if idx + 1 < len(code_lines):
                    operand += " " + code_lines[idx + 1].strip()
                if DOUBLEISH_RE.search(operand):
                    emit(lineno, "tick-cast",
                         "double-to-Tick cast bypasses secondsToTicks; "
                         "use the sim/types.hh conversion helpers")

        if "telemetry-json" in selected and not telemetry_exempt:
            if idx < len(nc_lines) and \
                    JSON_KEY_LITERAL_RE.search(nc_lines[idx]):
                context = " ".join(code_lines[max(0, idx - 3):idx + 1])
                if TELEMETRY_CALL_RE.search(context):
                    emit(lineno, "telemetry-json",
                         "JSON telemetry emitted through a raw "
                         "printf-family call; use the sim/json.hh "
                         "writers so escaping and number formats "
                         "stay canonical")

        if "wall-clock" in selected and not wall_exempt_file:
            m = WALL_CLOCK_RE.search(line)
            if m:
                emit(lineno, "wall-clock",
                     "host wall-clock access outside the whitelisted "
                     "bench files; simulated results must be a pure "
                     "function of the seed and config")

        if "host-rng" in selected and not rng_exempt_file:
            if HOST_RNG_CALL_RE.search(line) or \
                    HOST_RNG_TYPE_RE.search(line):
                emit(lineno, "host-rng",
                     "host randomness source; draw from the seeded "
                     "sim/random.hh xoshiro streams instead")
            elif UNSEEDED_MT_RE.search(line):
                emit(lineno, "host-rng",
                     "unseeded std::mt19937; every stream must be "
                     "explicitly seeded (prefer sim/random.hh)")
