"""Rule catalog and shared source-text machinery for mercury_lint.

The engine (engine_regex on masked text) emits Finding tuples against
these rule names, and the driver applies `// lint: allow(<rule>)`
suppression uniformly.

The SourceText class is the part that kills the v1 regex engine's
known false-positive classes: it builds masked
views of a translation unit in which comments and string literals are
blanked (so `// returns the current tick as uint64_t` or a log string
mentioning rand() can never trigger a rule), and resolves byte
offsets back to line numbers so rules may match across physical
lines.
"""

import bisect
import re
from collections import namedtuple

Finding = namedtuple("Finding", "path line rule message")

# ---------------------------------------------------------------------------
# Rule catalog
# ---------------------------------------------------------------------------

RULES = {
    "tick-api": (
        "A public header declares a time-valued parameter or return "
        "(named *when*, *tick*, *latency*, *deadline*, *now*) as raw "
        "std::uint64_t instead of Tick."),
    "tick-cast": (
        "A double-typed expression is cast straight to Tick, "
        "bypassing the secondsToTicks helpers in sim/types.hh."),
    "telemetry-json": (
        "A printf-family call emits a JSON-key-shaped format string "
        "outside the designated JSONL writers; hand-rolled JSON "
        "bypasses the canonical escaping the golden digests pin."),
    "wall-clock": (
        "Host wall-clock access (std::chrono clocks, time(), "
        "clock_gettime(), gettimeofday()) outside the whitelisted "
        "bench host-timing files. Host time leaking into simulated state "
        "breaks byte-reproducibility and --jobs invariance."),
    "host-rng": (
        "Host randomness (rand(), std::random_device, unseeded "
        "std::mt19937) outside sim/random.*. All simulated "
        "randomness must come from the seeded xoshiro streams."),
    "pointer-order": (
        "A container ordered or hashed on raw pointer values "
        "(std::map/set/unordered_* keyed on T*). Host allocator "
        "addresses differ run to run, so any iteration order that "
        "feeds simulated state or output is nondeterministic -- the "
        "AddressMap bug class fixed in PR 3."),
    "unordered-iter": (
        "Iteration over a std::unordered_map/set. Bucket order is "
        "implementation- and seed-dependent; sort the keys (or "
        "switch to std::map) before the results can reach emitted "
        "output or simulated state."),
    "result-class": (
        "A result field marked `///< [outcome]` is not summed in the "
        "same file's accountedRequests(). Outcome classes must "
        "partition the request count -- the always-on contract "
        "checks ok + timeouts + failed + shed == requests, and a "
        "class missing from the sum silently breaks availability "
        "math in every consumer."),
}

# ---------------------------------------------------------------------------
# Per-rule configuration
# ---------------------------------------------------------------------------

# Files allowed to touch host clocks: the self-benchmark measures
# host throughput by definition. No preprocessor guard whitelists a
# region; every other host clock read is a finding.
WALL_CLOCK_EXEMPT = (
    "bench/selfbench.cc",
)

# The deterministic RNG implementation itself.
HOST_RNG_EXEMPT = (
    "src/sim/random.hh",
    "src/sim/random.cc",
)

# Files that define the Tick conversion helpers.
TICK_CAST_EXEMPT = ("src/sim/types.hh",)

# The canonical JSONL writers, the only places allowed to spell JSON
# keys into raw output calls.
TELEMETRY_EXEMPT = (
    "src/sim/json.hh",
    "src/sim/sampler.cc",
    "src/sim/trace.cc",
)

# Time-valued identifier shapes for the tick-api rule.
TIME_NAME_RE = re.compile(
    r"(?:^|_)(?:when|tick|deadline|latency)(?:_|$)|"
    r"(?:[a-z0-9])(?:When|Tick|Deadline|Latency)|"
    r"^(?:when|tick|deadline|latency|now)", re.IGNORECASE)

PRINTF_FAMILY = (
    "fprintf", "printf", "sprintf", "snprintf", "vfprintf",
    "vsnprintf", "fputs", "fputc", "fwrite", "puts")

ALLOW_RE = re.compile(
    r"//\s*lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# An outcome-class field declaration: `<type> <name> [= init];`
# annotated `///< [outcome]` on the same line.
OUTCOME_FIELD_RE = re.compile(
    r"\b(\w+)\s*(?:=[^;]*)?;\s*///<\s*\[outcome\]")

ACCOUNTED_FN = "accountedRequests"


def time_valued_name(name):
    """True when an identifier looks like it carries simulated time."""
    return bool(name) and bool(TIME_NAME_RE.search(name))


def exempt(rel_path, exempt_list):
    """True when rel_path matches one of the exemption suffixes."""
    norm = rel_path.replace("\\", "/")
    return any(norm.endswith(e) for e in exempt_list)


# ---------------------------------------------------------------------------
# Suppression handling (driver-level, engine-independent)
# ---------------------------------------------------------------------------

def allowed_rules_at(raw_lines, lineno):
    """Rules waived at 1-based lineno: an allow comment on the same
    line or the line above."""
    rules = set()
    for probe in (lineno - 1, lineno - 2):
        if 0 <= probe < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[probe])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def count_waivers(raw_lines):
    """All (lineno, rule) allow-waivers present in a file."""
    waivers = []
    for idx, line in enumerate(raw_lines):
        m = ALLOW_RE.search(line)
        if m:
            for rule in m.group(1).split(","):
                waivers.append((idx + 1, rule.strip()))
    return waivers


# ---------------------------------------------------------------------------
# result-class
# ---------------------------------------------------------------------------
#
# The rule is comment-keyed: the `///< [outcome]` annotation lives in
# a doc comment, so it is matched on the raw text.

def _accounted_bodies(code):
    """Concatenated brace bodies of every accountedRequests()
    definition in the masked code view, or None when the file has
    only declarations (or none at all)."""
    bodies = []
    for m in re.finditer(r"\b%s\s*\(" % ACCOUNTED_FN, code):
        i = code.find("{", m.end())
        semi = code.find(";", m.end())
        if i == -1 or (semi != -1 and semi < i):
            continue  # declaration only
        depth = 0
        for j in range(i, len(code)):
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
                if depth == 0:
                    bodies.append(code[i:j + 1])
                    break
    return " ".join(bodies) if bodies else None


def outcome_class_findings(rel, src):
    """result-class findings for one file: every `///< [outcome]`
    field must be referenced inside accountedRequests() in the same
    file."""
    fields = []
    for idx, line in enumerate(src.raw_lines):
        m = OUTCOME_FIELD_RE.search(line)
        if m:
            fields.append((idx + 1, m.group(1)))
    if not fields:
        return []
    body = _accounted_bodies(src.code)
    findings = []
    for lineno, name in fields:
        if body is None:
            findings.append(Finding(
                rel, lineno, "result-class",
                f"outcome-class field '{name}' has no "
                f"{ACCOUNTED_FN}() in this file; define one summing "
                f"every [outcome] field so the accounting contract "
                f"can hold"))
        elif not re.search(r"\b%s\b" % re.escape(name), body):
            findings.append(Finding(
                rel, lineno, "result-class",
                f"outcome-class field '{name}' is not summed in "
                f"{ACCOUNTED_FN}(); a class missing from the sum "
                f"breaks the request-accounting contract"))
    return findings


# ---------------------------------------------------------------------------
# Masked source views
# ---------------------------------------------------------------------------

class SourceText:
    """A translation unit's text plus masked views.

    raw          : the file exactly as read
    raw_lines    : raw split into lines
    no_comments  : comments blanked (same length/offsets as raw);
                   string literals intact
    code         : comments AND string/char literal *contents* blanked
                   (delimiters kept), so structural rules never match
                   inside prose
    """

    def __init__(self, raw):
        self.raw = raw
        self.raw_lines = raw.splitlines()
        self.no_comments, self.code = _mask(raw)
        self._line_starts = [0]
        for i, ch in enumerate(raw):
            if ch == "\n":
                self._line_starts.append(i + 1)

    def line_of(self, offset):
        """1-based line containing byte offset."""
        return bisect.bisect_right(self._line_starts, offset)


def _mask(raw):
    """Blank comments (both views) and string/char contents (code
    view), preserving offsets and newlines."""
    no_comments = list(raw)
    code = list(raw)
    i, n = 0, len(raw)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = \
        range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        ch = raw[i]
        nxt = raw[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if ch == "/" and nxt == "/":
                state = LINE_COMMENT
                no_comments[i] = no_comments[i + 1] = " "
                code[i] = code[i + 1] = " "
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = BLOCK_COMMENT
                no_comments[i] = no_comments[i + 1] = " "
                code[i] = code[i + 1] = " "
                i += 2
                continue
            if ch == '"':
                if i > 0 and raw[i - 1] == "R":
                    m = re.match(r'R"([^()\s\\]{0,16})\(',
                                 raw[i - 1:i + 20])
                    if m:
                        state = RAW_STRING
                        raw_delim = ")" + m.group(1) + '"'
                        i += 1 + len(m.group(1)) + 1
                        continue
                state = STRING
                i += 1
                continue
            if ch == "'":
                state = CHAR
                i += 1
                continue
            i += 1
            continue
        if state == LINE_COMMENT:
            if ch == "\n":
                state = NORMAL
            else:
                no_comments[i] = " "
                code[i] = " "
            i += 1
            continue
        if state == BLOCK_COMMENT:
            if ch == "*" and nxt == "/":
                no_comments[i] = no_comments[i + 1] = " "
                code[i] = code[i + 1] = " "
                state = NORMAL
                i += 2
                continue
            if ch != "\n":
                no_comments[i] = " "
                code[i] = " "
            i += 1
            continue
        if state == STRING:
            if ch == "\\" and nxt:
                code[i] = " "
                if nxt != "\n":
                    code[i + 1] = " "
                i += 2
                continue
            if ch == '"':
                state = NORMAL
            elif ch != "\n":
                code[i] = " "
            i += 1
            continue
        if state == CHAR:
            if ch == "\\" and nxt:
                code[i] = " "
                if nxt != "\n":
                    code[i + 1] = " "
                i += 2
                continue
            if ch == "'":
                state = NORMAL
            elif ch != "\n":
                code[i] = " "
            i += 1
            continue
        if state == RAW_STRING:
            if raw.startswith(raw_delim, i):
                state = NORMAL
                i += len(raw_delim)
                continue
            if ch != "\n":
                code[i] = " "
            i += 1
            continue
    return "".join(no_comments), "".join(code)

