/**
 * @file
 * Windowed time-series sampler over simulated time.
 *
 * The stats registry (sim/stats.hh) answers "what happened over the
 * whole run"; the Sampler answers "how did it evolve": it divides
 * simulated time into fixed windows of `interval` ticks and emits one
 * JSONL line per window holding per-window counter deltas, derived
 * ratios, and windowed latency percentiles from interval histograms
 * that reset at every window boundary.
 *
 * Channels are registered before begin(); afterwards the hot path --
 * count(), recordLatency(), advanceTo() -- is allocation-free in
 * steady state once the output buffer has warmed up (reserve() it, or
 * accept one geometric growth tail; the sampler unit tests pin the
 * zero-allocation property with the operator-new probe).
 *
 * Determinism contract: everything the sampler emits is a pure
 * function of (interval, origin, the recorded values); it never reads
 * the host clock or RNG state, and window boundaries derive from
 * simulated ticks only. A run that samples computes the same timeline
 * as one that never attached a sampler, and `--jobs N` sweeps carry
 * per-point samplers whose lines merge in submission order, so the
 * JSONL bytes are identical across worker counts.
 */

#ifndef MERCURY_SIM_SAMPLER_HH
#define MERCURY_SIM_SAMPLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::stats
{

class Sampler
{
  public:
    /**
     * @param interval window width in simulated ticks (> 0)
     * @param label optional series label emitted as the first field
     *        of every line (sweep benches use it to tag the point)
     */
    explicit Sampler(Tick interval, std::string label = "");

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    Tick interval() const { return interval_; }
    const std::string &label() const { return label_; }

    // --- channel registration (before begin()) ---------------------

    /** Per-window event counter: count() accumulates into the open
     * window; the close emits the window's total and resets it. */
    std::size_t addCounter(std::string name);

    /**
     * Derived per-window ratio of two previously registered
     * counter channels' window values, emitted with a fixed
     * "%.6f" format. Windows where the denominator is zero emit
     * @p when_empty (e.g. 1.0 for availability: an idle window is
     * a fully available one).
     */
    std::size_t addRatio(std::string name, std::size_t numerator,
                         std::size_t denominator,
                         double when_empty = 1.0);

    /**
     * Windowed latency percentiles: an interval LatencyHistogram
     * that resets at every window boundary. The close emits
     * name_count plus name_p50/name_p99/name_p999 (the recorded
     * unit, typically ticks; 0 for an empty window).
     */
    std::size_t addLatency(std::string name,
                           unsigned precision_bits = 7);

    // --- run -------------------------------------------------------

    /** Anchor window 0 at @p origin. Channels are frozen from here
     * on. Calling twice is a bug. */
    void begin(Tick origin);

    bool active() const { return began_; }

    /** Accumulate into a counter channel's open window. */
    void count(std::size_t channel, std::uint64_t delta = 1);

    /** Record one value into a latency channel's open window. */
    void recordLatency(std::size_t channel, std::uint64_t value);

    /** Close (and emit) every window whose end is <= @p now. */
    void advanceTo(Tick now);

    /**
     * Close out the series at @p end: closes every whole window
     * before @p end and then the final partial window, provided any
     * simulated time elapsed in it. Idempotent for the same @p end.
     */
    void finish(Tick end);

    // --- output ----------------------------------------------------

    /** The accumulated JSONL, one object per closed window. */
    const std::string &jsonl() const { return out_; }

    std::uint64_t windowsClosed() const { return windowsClosed_; }

    /** Pre-size the output buffer so steady-state emission never
     * reallocates (the zero-allocation tests use this). */
    void reserve(std::size_t bytes) { out_.reserve(bytes); }

  private:
    enum class Kind : std::uint8_t { Count, Ratio, Latency };

    struct Channel
    {
        Kind kind;
        std::string name;
        /** Count: accumulated value. Ratio: numerator channel.
         * Latency: histogram index. */
        std::uint64_t a = 0;
        /** Ratio: denominator channel. */
        std::uint64_t b = 0;
        /** Ratio: emitted when the denominator's window is zero. */
        double whenEmpty = 0.0;
        /** Scratch: this window's value, filled at close. */
        std::uint64_t window = 0;
    };

    std::size_t addChannel(Kind kind, std::string name);
    void closeWindow();

    Tick interval_;
    std::string label_;
    bool began_ = false;
    bool finished_ = false;
    Tick origin_ = 0;
    /** Start tick of the currently open window. */
    Tick windowStart_ = 0;
    std::uint64_t windowIndex_ = 0;
    std::uint64_t windowsClosed_ = 0;

    std::vector<Channel> channels_;
    /** Detached parent for the interval histograms (never reachable
     * from any Registry, so --stats-json output is unaffected). */
    StatGroup histParent_;
    std::vector<std::unique_ptr<LatencyHistogram>> hists_;

    /** Reusable per-line scratch and the accumulated JSONL. */
    std::string line_;
    std::string out_;
};

} // namespace mercury::stats

#endif // MERCURY_SIM_SAMPLER_HH
