/**
 * @file
 * Shared plumbing of the host-cost benchmark: options, host timers,
 * the per-layer span accumulators, stats-tree snapshots, the
 * simulated-output digest and the result printer.
 *
 * Everything here observes the simulator from outside: spans wrap
 * calls into the simulator's public functions, and counts come from
 * its statistics tree. Nothing inside src/ is instrumented.
 */

#ifndef SIMBENCH_HARNESS_HH
#define SIMBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kvstore/store.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace simbench
{

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One reported metric; units and names match BENCHMARK.json. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** Printed beside the value, e.g. the sample count. */
    std::string note;
};

/** What one workload run reports. */
struct Result
{
    /** Operations whose correctness check ran / failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** FNV-1a over the simulated outputs of the fixed prefix. */
    std::uint64_t simDigest = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit,
        std::string note = {})
    {
        metrics.push_back(
            {std::move(name), value, std::move(unit), std::move(note)});
    }
};

/** Incremental FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    mix(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            value_ ^= (word >> (8 * i)) & 0xff;
            value_ *= 0x100000001b3ull;
        }
    }

    void mix(double value);

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0xcbf29ce484222325ull;
};

/**
 * Cost of one empty steady_clock::now() pair, in ns (median of
 * repeated bulk measurements). Subtracted from every sampled span.
 */
double calibrateTimerNs();

/**
 * Host-speed probe. On a shared host the CPU speed this process gets
 * drifts by up to 1.6x over tens of seconds, which swamps any change
 * worth measuring. No time is stolen (thread CPU time drifts the
 * same way); each instruction is slower. slowdown() first sweeps a
 * buffer larger than the host's private caches, so the reference
 * loop and the batch after it both start cold, then times a fixed
 * reference loop -- a 4-way LRU tag-array walk, the shape of the
 * simulator's own cache model -- against its nominal speed. Dividing
 * a host time by the slowdown measured beside it gives the time at
 * nominal speed. On back-to-back runs of mercury_small_get this cut
 * the run-to-run spread (quartile distance over median) of the rate
 * from 0.24 to 0.04.
 */
class SpeedProbe
{
  public:
    /** Reference-loop ns per iteration that counts as slowdown 1.0
     * (the loop's typical cold-start speed on a 4-vCPU Xeon VM). */
    static constexpr double nominalNsPerIteration = 8.0;
    static constexpr unsigned iterations = 100000;

    SpeedProbe();

    /** Evict, run the reference loop once, return the slowdown. */
    double slowdown();

  private:
    struct Way
    {
        std::uint64_t tag = 0;  ///< 0 = invalid
        std::uint64_t stamp = 0;
    };

    static constexpr unsigned sets = 512;
    static constexpr unsigned assoc = 4;
    std::vector<Way> ways_;
    /** 4 MiB swept before each timing. */
    std::vector<std::uint64_t> evict_;
    std::uint64_t stamp_ = 0;
    /** Stored so the loop's work is observable. */
    std::uint64_t hits_ = 0;
};

/**
 * Host time of a 1-in-N sample of calls, with the empty-timer cost
 * removed. Sampling is by call index, so which calls are timed is
 * deterministic; per-call spans would double the cost of a request.
 */
struct CallSampler
{
    static constexpr std::uint64_t period = 32;

    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    double sampledNs = 0.0;
    /** Calls whose completion tick preceded their issue tick. */
    std::uint64_t backwards = 0;

    bool due() const { return calls % period == 0; }

    double
    nsPerCall(double timer_ns) const
    {
        return sampled ? sampledNs / static_cast<double>(sampled) -
                             timer_ns
                       : 0.0;
    }
};

/** Sum of a named span and how often it ran. */
struct Span
{
    std::uint64_t count = 0;
    double ns = 0.0;

    void
    add(double elapsed_ns, std::uint64_t calls = 1)
    {
        ns += elapsed_ns;
        count += calls;
    }

    double mean() const { return count ? ns / count : 0.0; }
};

/**
 * Counters summed over every group of a stats tree whose flat JSON
 * key ends in a given suffix (e.g. ".core.instructions" sums the
 * instruction counter of every node).
 */
class StatSnapshot
{
  public:
    StatSnapshot() = default;
    explicit StatSnapshot(const mercury::stats::Registry &registry);

    double sum(const std::string &suffix) const;

  private:
    std::map<std::string, double> values_;
};

/** Exact-count deltas between two snapshots, per request. */
struct StatWindow
{
    StatSnapshot begin;
    StatSnapshot end;
    std::uint64_t requests = 0;

    double delta(const std::string &suffix) const;
    double perRequest(const std::string &suffix) const;
    /** misses / (hits + misses) over the window. */
    double missRate(const std::string &hits,
                    const std::string &misses) const;
};

/** Append the cpu.* and mem.* counts of a stats window. */
void addCoreAndCacheMetrics(Result &result, const StatWindow &window);

/**
 * The functional store timed on its own: a standalone kvstore::Store
 * holding the workload's keys replays the same op sequence through
 * getTraced/setTraced, one timer pair per run of same-kind ops.
 */
class KvReplay
{
  public:
    KvReplay(const mercury::kvstore::StoreParams &params,
             const std::vector<std::string> &keys,
             std::uint32_t value_bytes);

    void replay(const std::vector<mercury::workload::Request> &batch,
                double timer_ns);

    /** kvstore.get_ns, kvstore.set_ns (divided by the host
     * slowdown) and kvstore.hit_rate. */
    void addMetrics(Result &result, double slowdown) const;

    double nsPerOp() const;
    std::uint64_t evictions() const;

    /** GETs that missed or returned a wrong length, failed SETs. */
    std::uint64_t failed = 0;

  private:
    mercury::kvstore::Store store_;
    const std::vector<std::string> &keys_;
    std::uint32_t valueBytes_;
    std::string setValue_;
    Span get_;
    Span set_;
    std::uint64_t hits_ = 0;
};

double median(std::vector<double> values);

/** Nearest-rank quantile, p in (0, 1]. */
double quantile(std::vector<double> values, double p);

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Print the fingerprint line, every metric and the final JSON. */
void report(const Options &options, const Result &result);

// Workload entry points. Each fills either every end-to-end metric
// (options.trace false) or every per-layer metric (true).

/** mercury_small_get and iridium_mixed_4k; false if not a node
 * workload name. */
bool runNodeWorkload(const Options &options, Result &result);

/** cluster_bad_day. */
void runClusterWorkload(const Options &options, Result &result);

} // namespace simbench

#endif // SIMBENCH_HARNESS_HH
