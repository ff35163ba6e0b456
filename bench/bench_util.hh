/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses.
 *
 * Every bench owns a Session, which gives the whole suite a uniform
 * observability interface:
 *
 *   bench --stats-json=FILE   dump the stats registry as flat JSON
 *   bench --trace-out=FILE    dump request-lifecycle spans as JSONL
 *   bench --trace-chrome=FILE dump spans as Chrome trace-event JSON
 *                             (loadable in Perfetto / chrome://tracing)
 *   bench --timeseries-out=FILE  windowed time-series JSONL (one
 *                             object per sample window, for benches
 *                             that attach a stats::Sampler)
 *   bench --sample-interval=US   sample window width in simulated
 *                             microseconds (default 1000)
 *   bench --smoke             tiny CI-sized configuration
 *   bench --jobs=N            run sweep points on N worker threads
 *                             (0 = all hardware threads); output is
 *                             byte-identical to --jobs=1
 *   bench --help              list the uniform flags and exit
 *
 * "-" as FILE writes to stdout. The flags are consumed (removed from
 * argv) so benches built on other frameworks (google-benchmark) can
 * forward the rest. Without flags a Session changes nothing: stdout
 * stays byte-identical to a bench that never had one.
 *
 * Sweep-style benches shard their points through bench::ParallelSweep
 * (parallel_sweep.hh), which honours --jobs and merges per-point
 * stdout text and stats fragments in submission order.
 */

#ifndef MERCURY_BENCH_BENCH_UTIL_HH
#define MERCURY_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/json.hh"
#include "sim/sampler.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace mercury::bench
{

/** The request-size sweep of the paper (64 B to 1 MB, doubling). */
inline std::vector<std::uint32_t>
requestSizeSweep()
{
    std::vector<std::uint32_t> sizes;
    for (std::uint32_t size = 64; size <= 1048576; size *= 2)
        sizes.push_back(size);
    return sizes;
}

/** Three sizes spanning the sweep, for --smoke runs. */
inline std::vector<std::uint32_t>
smokeSizeSweep()
{
    return {64, 4096, 65536};
}

/** "64", "1K", "256K", "1M" labels as the paper's axes use. */
inline std::string
sizeLabel(std::uint32_t bytes)
{
    if (bytes >= 1048576 && bytes % 1048576 == 0)
        return std::to_string(bytes / 1048576) + "M";
    if (bytes >= 1024 && bytes % 1024 == 0)
        return std::to_string(bytes / 1024) + "K";
    return std::to_string(bytes);
}

inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/** The rule's dashes as a string, for points that buffer their text
 * through PointContext::printf instead of writing stdout directly. */
inline std::string
ruleString(int width = 100)
{
    return std::string(static_cast<std::size_t>(width), '-');
}

inline void
rule(int width = 100)
{
    std::fputs((ruleString(width) + "\n").c_str(), stdout);
}

/**
 * The rows a bench prints, as a `results.*` group for
 * Session::appendStatsFragment: `"results.<name>":value` pairs in the
 * order they were added.
 */
class ResultsFragment
{
  public:
    void
    add(std::string_view name, double value)
    {
        json::appendKey(text_, first_, "results.", name);
        json::appendDouble(text_, value);
    }

    const std::string &text() const { return text_; }

  private:
    std::string text_;
    bool first_ = true;
};

/**
 * Per-bench observability session: owns the stats registry and the
 * (optional) tracer, parses the shared command-line flags, and writes
 * the requested outputs when finished.
 *
 * The constructor consumes --stats-json[=PATH], --trace-out[=PATH]
 * and --smoke from argc/argv; everything else is left in place.
 */
class Session
{
  public:
    /** The uniform flag table: the single source for parsing and for
     * the generated --help block. */
    struct FlagSpec
    {
        const char *flag;
        const char *arg;  ///< nullptr for boolean flags
        const char *help;
    };

    static const FlagSpec *
    flagTable(std::size_t &count)
    {
        static const FlagSpec specs[] = {
            {"--stats-json", "FILE",
             "dump the stats registry as flat JSON ('-' = stdout)"},
            {"--trace-out", "FILE",
             "dump request-lifecycle spans as JSONL"},
            {"--trace-chrome", "FILE",
             "dump spans as Chrome trace-event JSON (Perfetto)"},
            {"--timeseries-out", "FILE",
             "windowed time-series JSONL (sampler-attached benches)"},
            {"--sample-interval", "MICROS",
             "sample window width in simulated microseconds "
             "(default 1000)"},
            {"--smoke", nullptr, "tiny CI-sized configuration"},
            {"--jobs", "N",
             "sweep worker threads (0 = all hardware threads); "
             "output byte-identical to --jobs=1"},
            {"--help", nullptr, "show the uniform bench flags and exit"},
        };
        count = sizeof(specs) / sizeof(specs[0]);
        return specs;
    }

    /** One aligned help line for a flag spec. */
    static std::string
    helpLine(const FlagSpec &spec)
    {
        std::string head = "  ";
        head += spec.flag;
        if (spec.arg) {
            head += '=';
            head += spec.arg;
        }
        if (head.size() < 28)
            head.resize(28, ' ');
        else
            head += ' ';
        return head + spec.help + '\n';
    }

    /** The generated --help block, one line per uniform flag. */
    static std::string
    helpText(const std::string &name)
    {
        std::string out = "usage: " + name + " [flags]\n\n"
                          "uniform bench flags:\n";
        std::size_t count = 0;
        const FlagSpec *specs = flagTable(count);
        for (std::size_t i = 0; i < count; ++i)
            out += helpLine(specs[i]);
        return out;
    }

    /**
     * @param extra_flags flags the bench parses itself from the
     *        leftover argv (e.g. selfbench's --out=PATH). Declaring
     *        them here whitelists them past the unknown-flag check
     *        and adds them to --help.
     */
    Session(int &argc, char **argv, std::string name,
            std::vector<FlagSpec> extra_flags = {})
        : registry_(std::move(name)),
          extraFlags_(std::move(extra_flags))
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string value;
            if (match(arg, "--stats-json", i, argc, argv, value)) {
                statsPath_ = value;
            } else if (match(arg, "--trace-out", i, argc, argv,
                             value)) {
                tracePath_ = value;
            } else if (match(arg, "--trace-chrome", i, argc, argv,
                             value)) {
                chromePath_ = value;
            } else if (match(arg, "--timeseries-out", i, argc, argv,
                             value)) {
                timeseriesPath_ = value;
            } else if (match(arg, "--sample-interval", i, argc, argv,
                             value)) {
                sampleIntervalUs_ = parseSampleInterval(value);
            } else if (arg == "--smoke") {
                smoke_ = true;
            } else if (match(arg, "--jobs", i, argc, argv, value)) {
                jobs_ = parseJobs(value);
                jobsGiven_ = true;
            } else if (arg == "--help") {
                std::fputs(helpText(registry_.name()).c_str(),
                           stdout);
                for (const FlagSpec &spec : extraFlags_)
                    std::fputs(helpLine(spec).c_str(), stdout);
                std::exit(0);
            } else if (arg.rfind("--", 0) == 0 &&
                       !isExtraFlag(arg) &&
                       arg.rfind("--benchmark_", 0) != 0) {
                // google-benchmark binaries construct a Session
                // before ::benchmark::Initialize; its flags pass
                // through untouched.
                rejectUnknownFlag(arg);
            } else {
                argv[out++] = argv[i];
            }
        }
        argc = out;
        argv[argc] = nullptr;

        if (!tracePath_.empty() || !chromePath_.empty()) {
            if (MERCURY_TRACING) {
                tracer_ = std::make_unique<trace::Tracer>();
            } else {
                std::fprintf(stderr,
                             "%s: built with MERCURY_TRACING=OFF; "
                             "--trace-out/--trace-chrome ignored\n",
                             registry_.name().c_str());
            }
        }
    }

    ~Session() { finish(); }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    stats::Registry &registry() { return registry_; }

    /** Pass as ServerModelParams::statsParent (et al.). */
    stats::StatGroup *statsParent() { return &registry_; }

    /** Pass as ServerModelParams::tracer; null unless --trace-out. */
    trace::Tracer *tracer() { return tracer_.get(); }

    bool smoke() const { return smoke_; }

    /**
     * Worker threads for ParallelSweep. Tracing forces 1 (the ring
     * buffer is single-writer; span order must stay byte-stable).
     */
    unsigned
    jobs() const
    {
        return tracer_ ? 1u : jobs_;
    }

    /** Whether --jobs was given (jobs() is then what it asked for,
     * unless tracing forces 1). */
    bool jobsGiven() const { return jobsGiven_; }

    /** Accepts --flag=VALUE and --flag VALUE; advances @p i for the
     * two-token form. A value flag given last fails fast (exit 2).
     * Public so a bench parses its own extra flags the same way. */
    bool
    match(const std::string &arg, const char *flag, int &i, int argc,
          char **argv, std::string &value) const
    {
        const std::string prefix = std::string(flag) + "=";
        if (arg.rfind(prefix, 0) == 0) {
            value = arg.substr(prefix.size());
            return true;
        }
        if (arg != flag)
            return false;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: flag '%s' needs a value; see "
                         "--help\n", registry_.name().c_str(), flag);
            std::exit(2);
        }
        value = argv[++i];
        return true;
    }

    /** Size sweep honouring --smoke. */
    std::vector<std::uint32_t>
    sizes() const
    {
        return smoke_ ? smokeSizeSweep() : requestSizeSweep();
    }

    /**
     * Fold the registry's *current* contents into the eventual
     * --stats-json dump. Benches whose models are transient call
     * this while they are still alive (their stat groups unregister
     * on destruction); once any capture happened, the final dump is
     * exactly the concatenated captures. Without captures the dump
     * is whatever is still registered when finish() runs. No-op
     * unless --stats-json was requested.
     */
    void
    capture()
    {
        if (statsPath_.empty())
            return;
        std::lock_guard<std::mutex> lock(emitMutex_);
        if (captured_.capacity() < 4096)
            captured_.reserve(4096);
        registry_.formatJson(captured_, "", capturedFirst_);
        haveCapture_ = true;
    }

    /** True when --stats-json was requested (ParallelSweep points
     * skip fragment formatting otherwise). */
    bool wantStats() const { return !statsPath_.empty(); }

    /** True when --timeseries-out was requested (benches attach a
     * stats::Sampler only then; without it sampling is fully off and
     * all other outputs stay byte-identical). */
    bool wantTimeseries() const { return !timeseriesPath_.empty(); }

    /** Sample window width as simulated ticks (--sample-interval,
     * default 1000 simulated microseconds). */
    Tick sampleInterval() const { return sampleIntervalUs_ * tickUs; }

    /**
     * Fold a sampler's accumulated JSONL into the eventual
     * --timeseries-out file. ParallelSweep publishes per-point
     * series through here in submission order, so the file is
     * byte-identical across --jobs values. No-op without
     * --timeseries-out or for an empty series.
     */
    void
    appendTimeseries(const std::string &jsonl)
    {
        if (timeseriesPath_.empty() || jsonl.empty())
            return;
        std::lock_guard<std::mutex> lock(emitMutex_);
        timeseries_ += jsonl;
    }

    /**
     * Fold a pre-formatted JSON fragment (comma-separated
     * "key":value pairs, no braces) into the eventual --stats-json
     * dump. ParallelSweep emits per-point fragments through here in
     * submission order, producing the same bytes capture() would
     * have produced from live models. No-op without --stats-json or
     * for an empty fragment.
     */
    void
    appendStatsFragment(const std::string &fragment)
    {
        if (statsPath_.empty() || fragment.empty())
            return;
        std::lock_guard<std::mutex> lock(emitMutex_);
        if (!capturedFirst_)
            captured_ += ',';
        capturedFirst_ = false;
        captured_ += fragment;
        haveCapture_ = true;
    }

    /**
     * Write the requested outputs. Called automatically from the
     * destructor; calling earlier pins the capture point. Idempotent.
     */
    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;
        std::lock_guard<std::mutex> lock(emitMutex_);
        if (!statsPath_.empty())
            writeTo(statsPath_, [this](std::ostream &os) {
                if (haveCapture_)
                    os << "{" << captured_ << "}\n";
                else
                    registry_.writeJson(os);
            });
        if (tracer_ && !tracePath_.empty())
            writeTo(tracePath_, [this](std::ostream &os) {
                tracer_->writeJsonl(os);
            });
        if (tracer_ && !chromePath_.empty())
            writeTo(chromePath_, [this](std::ostream &os) {
                tracer_->writeChromeJson(os);
            });
        // The timeseries file is written even when no sampler fed it
        // (an empty file is an honest "this bench sampled nothing"),
        // so determinism harnesses can diff it unconditionally.
        if (!timeseriesPath_.empty())
            writeTo(timeseriesPath_, [this](std::ostream &os) {
                os << timeseries_;
            });
    }

  private:
    /** Simulated microseconds per window; 0/garbage clamps to 1. */
    static std::uint64_t
    parseSampleInterval(const std::string &value)
    {
        const long long parsed =
            std::strtoll(value.c_str(), nullptr, 10);
        return parsed > 0 ? static_cast<std::uint64_t>(parsed) : 1;
    }

    /** "--jobs 0" means one worker per hardware thread. */
    static unsigned
    parseJobs(const std::string &value)
    {
        const long parsed = std::strtol(value.c_str(), nullptr, 10);
        if (parsed <= 0)
            return std::max(1u, std::thread::hardware_concurrency());
        return static_cast<unsigned>(parsed);
    }

    /** The "--flag" part of "--flag=value" (or the whole token). */
    static std::string
    flagName(const std::string &arg)
    {
        const std::size_t eq = arg.find('=');
        return eq == std::string::npos ? arg : arg.substr(0, eq);
    }

    /** True when @p arg names a bench-declared extra flag; such
     * tokens pass the unknown-flag check and stay in argv for the
     * bench's own parser. */
    bool
    isExtraFlag(const std::string &arg) const
    {
        const std::string name = flagName(arg);
        for (const FlagSpec &spec : extraFlags_) {
            if (name == spec.flag)
                return true;
        }
        return false;
    }

    /** Classic Levenshtein distance, for the did-you-mean hint. */
    static std::size_t
    editDistance(const std::string &a, const std::string &b)
    {
        std::vector<std::size_t> row(b.size() + 1);
        for (std::size_t j = 0; j <= b.size(); ++j)
            row[j] = j;
        for (std::size_t i = 1; i <= a.size(); ++i) {
            std::size_t diag = row[0];
            row[0] = i;
            for (std::size_t j = 1; j <= b.size(); ++j) {
                const std::size_t subst =
                    diag + (a[i - 1] == b[j - 1] ? 0 : 1);
                diag = row[j];
                row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                                   subst});
            }
        }
        return row[b.size()];
    }

    /** Misspelled flags fail fast (exit 2) with the closest known
     * flag as a hint, instead of being silently ignored. */
    [[noreturn]] void
    rejectUnknownFlag(const std::string &arg) const
    {
        const std::string name = flagName(arg);
        std::string closest;
        std::size_t best = name.size();  // hint only if clearly close
        std::size_t count = 0;
        const FlagSpec *specs = flagTable(count);
        auto consider = [&](const char *flag) {
            const std::size_t d = editDistance(name, flag);
            if (d < best) {
                best = d;
                closest = flag;
            }
        };
        for (std::size_t i = 0; i < count; ++i)
            consider(specs[i].flag);
        for (const FlagSpec &spec : extraFlags_)
            consider(spec.flag);
        std::fprintf(stderr, "%s: unknown flag '%s'",
                     registry_.name().c_str(), name.c_str());
        if (!closest.empty() && best <= 3)
            std::fprintf(stderr, " (did you mean '%s'?)",
                         closest.c_str());
        std::fprintf(stderr, "; see --help\n");
        std::exit(2);
    }

    template <typename Fn>
    void
    writeTo(const std::string &path, Fn &&fn)
    {
        if (path == "-") {
            fn(std::cout);
            std::cout.flush();
        } else {
            std::ofstream os(path);
            if (!os) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             path.c_str());
                return;
            }
            fn(os);
        }
    }

    stats::Registry registry_;
    std::vector<FlagSpec> extraFlags_;
    std::unique_ptr<trace::Tracer> tracer_;
    std::string statsPath_;
    std::string tracePath_;
    std::string chromePath_;
    std::string timeseriesPath_;
    /** Serializes the capture/append/finish emission state; guards
     * captured_, timeseries_, capturedFirst_ and haveCapture_. */
    mutable std::mutex emitMutex_;
    std::string captured_;
    std::string timeseries_;
    std::uint64_t sampleIntervalUs_ = 1000;
    bool capturedFirst_ = true;
    bool haveCapture_ = false;
    bool smoke_ = false;
    bool finished_ = false;
    unsigned jobs_ = 1;
    bool jobsGiven_ = false;
};

/**
 * One printf-style JSON object per line, preserving exact numeric
 * formats (a digest consumer diffs these bytes, so "%.4f" must stay
 * "%.4f"). Usage:
 *
 *   JsonLine line;
 *   line.number("loss", "%.4f", loss).uint("retries", r)
 *       .hex("digest", d).print();
 */
class JsonLine
{
  public:
    /** Fixed-format floating-point field, e.g. fmt = "%.4f". */
    JsonLine &
    number(const char *key, const char *fmt, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), fmt, value);
        return raw(key, buf);
    }

    JsonLine &
    uint(const char *key, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        return raw(key, buf);
    }

    /** Quoted 0x%016llx string, the digest convention. */
    JsonLine &
    hex(const char *key, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                      static_cast<unsigned long long>(value));
        return raw(key, buf);
    }

    JsonLine &
    boolean(const char *key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    /** Quoted string; caller guarantees no characters needing
     * escapes (keys and enum-ish values in practice). */
    JsonLine &
    str(const char *key, const std::string &value)
    {
        return raw(key, "\"" + value + "\"");
    }

    void
    print(std::FILE *out = stdout)
    {
        std::fputs(text().c_str(), out);
    }

    /** The finished line (with closing brace and newline), for
     * callers routing output through PointContext::printf. */
    std::string text() const { return body_ + "}\n"; }

  private:
    JsonLine &
    raw(const char *key, const std::string &text)
    {
        body_ += first_ ? "\"" : ",\"";
        first_ = false;
        body_ += key;
        body_ += "\":";
        body_ += text;
        return *this;
    }

    std::string body_ = "{";
    bool first_ = true;
};

} // namespace mercury::bench

#endif // MERCURY_BENCH_BENCH_UTIL_HH
