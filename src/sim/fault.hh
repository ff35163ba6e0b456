/**
 * @file
 * Deterministic fault injection.
 *
 * A FaultInjector owns a dedicated RNG stream (seeded independently
 * of every workload stream) plus two sources of faults:
 *
 *  - probabilistic: subsystems ask roll(p) at their fault points
 *    (packet transmission, page program, block erase, ...); and
 *  - scheduled: an explicit timeline of (tick, kind, target) events
 *    (e.g. "crash node3 at t=40ms") drained by the simulation loop.
 *
 * Every fault that actually fires is appended to a recorded timeline,
 * so two runs with the same seed and the same request stream produce
 * bit-identical fault histories; timelineDigest() folds the history
 * into one comparable value for determinism tests and sweep output.
 *
 * Zero-cost-off contract: roll(p) with p <= 0 returns false WITHOUT
 * consuming RNG state, and subsystems only consult an injector they
 * were explicitly handed. A simulation without an injector (or with
 * all rates zero) therefore computes bit-identically to a build that
 * never heard of faults.
 */

#ifndef MERCURY_SIM_FAULT_HH
#define MERCURY_SIM_FAULT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace mercury::fault
{

/** What failed. One enumerator per instrumented fault point. */
enum class FaultKind : std::uint8_t
{
    PacketLoss,       ///< wire/NIC dropped a TCP segment
    /** NIC MAC buffer overflowed. No model records it; it stays
     * because timelineDigest() folds the numeric kind, and removing
     * it would renumber every later kind. */
    MacBufferDrop,
    FlashProgramFail, ///< page program failed (page burned)
    FlashBadBlock,    ///< block retired (grown bad block)
    NodeCrash,        ///< cluster node process died
    NodeRestart,      ///< cluster node came back (cold)
    NetDegrade,       ///< loss burst began (detail: probability, ppb)
    NetRestore,       ///< loss burst ended
    FlashWear,        ///< wear burst (detail: program-fail prob, ppb)
};

/** Encode a probability into a FaultRecord's integral detail field
 * as parts-per-billion (the NetDegrade/FlashWear convention). */
constexpr std::uint64_t
probabilityToPpb(double probability)
{
    return static_cast<std::uint64_t>(probability * 1e9);
}

constexpr double
ppbToProbability(std::uint64_t ppb)
{
    return static_cast<double>(ppb) / 1e9;
}

/** Stable printable name ("packet-loss", "node-crash", ...). */
const char *kindName(FaultKind kind);

/** One fault that fired. */
struct FaultRecord
{
    Tick at = 0;
    FaultKind kind{};
    std::string target;
    std::uint64_t detail = 0;
};

/** One fault planned for the future. */
struct ScheduledFault
{
    Tick at = 0;
    FaultKind kind{};
    std::string target;
    std::uint64_t detail = 0;
};

class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed = 0xfa17ull);

    std::uint64_t seed() const { return seed_; }

    /**
     * Seed for a subordinate injector derived from this one's seed
     * and a label (FNV-1a), consuming no RNG state here. Giving
     * each simulated node its own forked injector decouples the
     * node-local fault streams (packet loss, flash faults) from the
     * master's scenario draws: a node's draws then depend only on
     * its own operations, not on the global interleaving of all
     * nodes' rolls.
     */
    std::uint64_t forkSeed(std::string_view label) const;

    // --- Probabilistic fault points ---------------------------------

    /**
     * True with the given probability. p <= 0 is false and p >= 1 is
     * true, in both cases without consuming RNG state, so disabled
     * fault points perturb nothing.
     */
    bool roll(double probability);

    /** Uniform multiplier in [1-fraction, 1+fraction] (backoff
     * jitter). fraction <= 0 returns 1.0 without consuming RNG. */
    double jitter(double fraction);

    /** Exponentially distributed waiting time with the given mean
     * (Poisson fault arrivals). */
    Tick nextInterval(Tick mean);

    /** Uniform integer in [0, bound) (victim selection). */
    std::uint64_t pick(std::uint64_t bound);

    // --- Scheduled fault plans --------------------------------------

    void schedule(Tick at, FaultKind kind, std::string target,
                  std::uint64_t detail = 0);

    /** Earliest scheduled fault with at <= now, removed from the
     * plan; nullopt when none is due. Ties pop in insertion order. */
    std::optional<ScheduledFault> popDue(Tick now);

    std::size_t pendingScheduled() const { return scheduled_.size(); }

    // --- Recorded timeline ------------------------------------------

    /** Append a fired fault to the timeline. Subsystems call this at
     * the moment they act on a fault. */
    void record(Tick at, FaultKind kind, std::string_view target,
                std::uint64_t detail = 0);

    const std::vector<FaultRecord> &timeline() const
    {
        return timeline_;
    }

    std::size_t faultCount() const { return timeline_.size(); }

    /** FNV-1a fold of the full timeline: equal digests mean equal
     * fault histories. Seeded runs must reproduce this exactly. */
    std::uint64_t timelineDigest() const;

    /**
     * Timeline fold continued from @p basis instead of the FNV
     * offset: chains several injectors' timelines (master first,
     * then each node fork in node-index order) into one combined
     * digest.
     */
    std::uint64_t timelineDigest(std::uint64_t basis) const;

  private:
    std::uint64_t seed_;
    Rng rng_;
    /** Planned faults keyed by due tick; multimap keeps insertion
     * order within a tick. */
    std::multimap<Tick, ScheduledFault> scheduled_;
    std::vector<FaultRecord> timeline_;
};

/**
 * A correlated "bad day" scenario: node crashes (typically a whole
 * rack, staggered by a deterministic interval as the power rail or
 * ToR takes them down one by one), a packet-loss burst, and a flash
 * wear burst, all on one seeded timeline. scheduleBadDay() expands
 * the plan into the injector's scheduled-fault queue; the simulation
 * loop drains it with popDue() like any hand-scheduled fault.
 */
struct BadDayPlan
{
    /** When the bad day begins. */
    Tick at = 0;

    /** Nodes that crash, in order; empty for a crash-free plan. */
    std::vector<std::string> crashedNodes;

    /** Deterministic gap between consecutive crashes. */
    Tick crashStagger = 0;

    /** Per-node downtime; a matching NodeRestart is scheduled for
     * each crash. 0 leaves restarts to the simulation's default
     * downtime policy. */
    Tick downtime = 0;

    /** Cluster-wide packet-loss burst (target "*"): per-segment drop
     * probability and how long the burst lasts. 0 disables. */
    double lossProbability = 0.0;
    Tick lossDuration = 0;

    /** Cluster-wide flash wear burst (target "*"): page program-fail
     * probability and burst duration. 0 disables. */
    double flashProgramFailProbability = 0.0;
    Tick flashWearDuration = 0;
};

/** Targets all nodes in a scheduled fault ("*"). */
inline constexpr const char *allNodes = "*";

/** Expand a composed scenario into the injector's schedule. */
void scheduleBadDay(FaultInjector &injector, const BadDayPlan &plan);

} // namespace mercury::fault

#endif // MERCURY_SIM_FAULT_HH
