/**
 * @file
 * Parametric core timing models.
 *
 * Two behaviours cover the paper's design space:
 *
 *  - In-order cores (Cortex-A7): stall on every miss; modest issue
 *    rate. Cheap and dense -- the Mercury/Iridium building block.
 *  - Out-of-order cores (Cortex-A15): higher sustained
 *    IPC and memory-level parallelism that overlaps independent
 *    misses, hiding memory latency until dependent chains dominate.
 *
 * Cores execute OpTraces against a CacheHierarchy using a time cursor
 * plus a window of outstanding misses; see CoreModel::run().
 */

#ifndef MERCURY_CPU_CORE_HH
#define MERCURY_CPU_CORE_HH

#include <string>
#include <vector>

#include "cpu/op_trace.hh"
#include "mem/cache.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::cpu
{

/** The core microarchitectures evaluated in the paper. */
enum class CoreType { CortexA7, CortexA15 };

/** Static configuration of a core timing model. */
struct CoreParams
{
    std::string name = "core";
    CoreType type = CoreType::CortexA7;

    double freqGHz = 1.0;

    /** Sustained instructions per cycle on cache-resident code. */
    double issueIpc = 1.0;

    /** True for the A15. */
    bool outOfOrder = false;

    /** Maximum overlapped misses for independent random accesses. */
    unsigned mlpRandom = 1;

    /** Maximum overlapped misses for sequential streams (captures
     * next-line prefetching as well as OoO overlap). */
    unsigned mlpSequential = 1;

    /** Active power at this frequency (paper Table 1). */
    double activePowerW = 0.1;

    /** Core area in mm^2 at 28 nm (paper Table 1). */
    double areaMm2 = 0.58;

    /** Ticks for one cycle at this core's frequency. */
    Tick
    cyclePeriod() const
    {
        // Frequency-to-period needs a direct division; routing it
        // through secondsToTicks would change the rounding and shift
        // every calibrated timing result.
        // lint: allow(tick-cast)
        return static_cast<Tick>(static_cast<double>(tickNs) / freqGHz);
    }
};

/** Timing summary of one trace execution. */
struct RunResult
{
    Tick start = 0;
    Tick end = 0;
    /** Time the core spent issuing instructions. */
    Tick computeTicks = 0;
    /** Time the core spent stalled on the memory system. */
    Tick stallTicks = 0;
    Counter instructions = 0;
    Counter memOps = 0;

    Tick elapsed() const { return end - start; }
};

/**
 * A core timing model bound to its cache hierarchy.
 */
class CoreModel
{
  public:
    CoreModel(const CoreParams &params, mem::CacheHierarchy *caches,
              stats::StatGroup *parent = nullptr);

    /**
     * Execute a trace starting at the given absolute tick.
     *
     * The model advances a time cursor through the ops. In-order
     * cores serialize on every miss. Out-of-order cores keep up to
     * mlpRandom/mlpSequential misses in flight and only serialize on
     * dependent accesses and at the end of the trace.
     */
    RunResult run(const OpTrace &trace, Tick start);

    const CoreParams &params() const { return params_; }

    mem::CacheHierarchy *caches() const { return caches_; }

  private:
    unsigned mlpFor(Stream stream) const;

    Tick computeTicksFor(std::uint64_t instructions) const;

    CoreParams params_;
    mem::CacheHierarchy *caches_;

    /** Completion times of the misses in flight during run(). */
    std::vector<Tick> outstanding_;

    stats::StatGroup statGroup_;
    stats::Scalar instrRetired_;
    stats::Scalar memOpsIssued_;
    stats::Scalar computeTicksStat_;
    stats::Scalar stallTicksStat_;
};

/** ARM Cortex-A7 @ 1 GHz: in-order, 100 mW, 0.58 mm^2 (Table 1). */
CoreParams cortexA7Params();

/** ARM Cortex-A15: out-of-order; 600 mW @ 1 GHz or 1 W @ 1.5 GHz. */
CoreParams cortexA15Params(double freq_ghz = 1.0);

/** Default cache hierarchies per core type. @p with_l2 attaches the
 * paper's 2 MB L2. */
mem::HierarchyParams defaultHierarchy(CoreType type, bool with_l2);

} // namespace mercury::cpu

#endif // MERCURY_CPU_CORE_HH
