/**
 * @file
 * 3D NAND flash subsystem: raw die timing, a page-mapped FTL with
 * garbage collection and wear leveling, and a multi-channel controller
 * that implements the MemDevice interface.
 *
 * Iridium replaces the Mercury stack's DRAM with a single monolithic
 * layer of Toshiba p-BiCS-style 3D NAND (19.8 GB per stack) behind 16
 * independent flash controllers, mirroring the 16 DRAM ports
 * (Sec. 4.2.1). Read/write latencies follow the paper's simulation
 * values: reads 10-20 us, programs 200 us.
 *
 * Line-granularity accesses are serviced through a per-channel page
 * register: reads of lines in the most recently sensed page pay only
 * the channel transfer; writes coalesce in the register until a
 * different page is dirtied, at which point the register is flushed as
 * a log-structured program through the FTL. This reproduces the
 * paper's behaviour where scattered metadata updates make PUTs pay
 * multiple program latencies while streaming reads amortize the sense
 * cost across a whole page.
 */

#ifndef MERCURY_MEM_FLASH_HH
#define MERCURY_MEM_FLASH_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::mem
{

/** Static configuration of the flash subsystem. */
struct FlashParams
{
    std::string name = "flash";

    /** Independent channels/controllers, one per address slice. */
    unsigned numChannels = 16;

    /** Total physical capacity across channels (19.8 GB per stack,
     * Sec. 4.2.1). */
    std::uint64_t capacity = 19'800'000'000ull;

    unsigned pageBytes = 4096;
    unsigned pagesPerBlock = 128;

    /** Fraction of physical pages reserved for the FTL. */
    static constexpr double overprovision = 0.07;

    /** Array sense latency for a page read. */
    Tick readLatency = 10 * tickUs;

    /** Program latency for a page write. */
    Tick programLatency = 200 * tickUs;

    /** Block erase latency. */
    static constexpr Tick eraseLatency = 2 * tickMs;

    /** Channel transfer bandwidth, bytes per second. */
    static constexpr double channelBandwidth = 800e6;

    /** GC starts when a channel's free blocks drop to this level. */
    static constexpr unsigned gcLowWaterBlocks = 4;

    /** Write-coalescing buffer slots per channel (whole pages).
     * Scattered line writes gather here and are programmed
     * page-at-a-time, as in real SSD controllers. */
    unsigned writeBufferPages = 16;

    /** Wear-leveling kicks in when erase-count spread exceeds this. */
    static constexpr unsigned wearLevelThreshold = 64;

    // --- Fault model (only consulted with a FaultInjector) ----------

    /** Per-page probability a program fails: the page is burned and
     * its block marked for retirement at its next erase. */
    double programFailProbability = 0.0;
};

/** Cost summary of one FTL host-write (for the timing layer). */
struct FtlWriteOutcome
{
    std::uint64_t physicalPage;
    /** Valid pages relocated by garbage collection. */
    unsigned movedPages = 0;
    /** Blocks erased (GC + wear leveling). */
    unsigned erases = 0;
    /** Program attempts that failed (each cost a program latency). */
    unsigned programFailures = 0;
    /** Blocks retired as grown-bad (each cost an erase attempt). */
    unsigned retiredBlocks = 0;
};

/**
 * Page-mapped flash translation layer for one channel.
 *
 * Log-structured: every host write goes to the next free page of the
 * active block; the old physical page is invalidated. Greedy garbage
 * collection reclaims the block with the fewest valid pages. A simple
 * static wear-leveling rule relocates the coldest block when the
 * erase-count spread grows past a threshold.
 */
class Ftl
{
  public:
    /**
     * @param physPages physical pages on the channel
     * @param pagesPerBlock pages per erase block
     * @param overprovision fraction of pages invisible to the host
     * @param gcLowWater free-block threshold triggering GC
     * @param wearThreshold erase spread triggering wear leveling
     */
    Ftl(std::uint64_t physPages, unsigned pagesPerBlock,
        double overprovision, unsigned gcLowWater,
        unsigned wearThreshold);

    /** Number of pages the host may address. */
    std::uint64_t logicalPages() const { return logicalPages_; }

    std::uint64_t physicalPages() const { return physPages_; }

    /** True once the logical page has been written. */
    bool isMapped(std::uint64_t lpn) const;

    /** Write (or overwrite) a logical page. @p now stamps any
     * injected fault records with the simulated time. */
    FtlWriteOutcome write(std::uint64_t lpn, Tick now = 0);

    /** Total block erases so far. */
    std::uint64_t totalErases() const { return totalErases_; }

    /** Pages moved by GC/wear leveling so far. */
    std::uint64_t totalMoves() const { return totalMoves_; }

    /** Host page writes so far. */
    std::uint64_t hostWrites() const { return hostWrites_; }

    /** Flash page programs (host + relocation) so far. */
    std::uint64_t flashWrites() const { return flashWrites_; }

    /** flashWrites / hostWrites; 1.0 when GC never ran. */
    double writeAmplification() const;

    /** Spread between the most- and least-erased block. */
    unsigned eraseSpread() const;

    std::uint64_t freeBlocks() const { return freeBlocks_.size(); }

    /**
     * Attach a fault injector (nullptr detaches) with the failure
     * probabilities to apply and a target label for the recorded
     * timeline. Failures only fire while an injector is attached.
     * @p erase_fail_probability is the chance an erase grows the
     * block bad; only fault_sweep's FTL section sets it.
     */
    void setFaultInjection(fault::FaultInjector *injector,
                           double program_fail_probability,
                           double erase_fail_probability,
                           std::string target);

    /** Blocks permanently retired as grown-bad. */
    std::uint64_t retiredBlocks() const { return retiredBlocks_; }

    /** Page programs that failed (and were retried elsewhere). */
    std::uint64_t programFailures() const { return programFailures_; }

    /** Fraction of physical capacity lost to retired blocks. */
    double capacityLossFraction() const;

    /** Blocks that may still be retired before the guard refuses
     * further retirement to protect GC headroom. */
    std::uint64_t spareBlocksRemaining() const;

    /** Invariant checker used by tests: every mapped lpn's ppn must
     * reverse-map back to it, valid counts must be consistent, and
     * retired blocks must be empty and out of the free pool. */
    bool checkConsistency() const;

    /** log2 of the entries in one demand-allocated table chunk. */
    static constexpr unsigned tableChunkShift = 12;

    /** Host bytes of one full table chunk. */
    static constexpr std::size_t tableChunkBytes =
        (std::size_t{1} << tableChunkShift) * sizeof(std::int64_t);

    /** Host bytes the lpn->ppn and ppn->lpn tables hold resident. */
    std::size_t tableBytes() const
    {
        return map_.residentBytes() + reverse_.residentBytes();
    }

  private:
    static constexpr std::int64_t unmapped = -1;

    /**
     * Page table allocated a chunk at a time, on the first write of
     * an entry in the chunk (demand-allocated mapping, as in DFTL).
     * A channel slices GBs of flash of which a run maps a few MB, so
     * a flat table would be mostly untouched `unmapped` entries.
     * Reads of a missing chunk return `unmapped` and allocate
     * nothing; only set() allocates.
     */
    class DemandTable
    {
      public:
        static constexpr std::uint64_t chunkEntries = 1ull
                                                      << tableChunkShift;

        explicit DemandTable(std::uint64_t entries)
            : chunks_((entries + chunkEntries - 1) >> tableChunkShift)
        {}

        std::int64_t get(std::uint64_t i) const
        {
            const std::vector<std::int64_t> &chunk =
                chunks_[i >> tableChunkShift];
            return chunk.empty() ? unmapped
                                 : chunk[i & (chunkEntries - 1)];
        }

        void set(std::uint64_t i, std::int64_t value)
        {
            std::vector<std::int64_t> &chunk =
                chunks_[i >> tableChunkShift];
            if (chunk.empty()) {
                if (value == unmapped)
                    return;
                chunk.assign(chunkEntries, unmapped);
            }
            chunk[i & (chunkEntries - 1)] = value;
        }

        /** True when pred(index, value) holds for every entry of
         * every allocated chunk; stops at the first that fails. */
        template <typename Pred>
        bool allAllocated(Pred &&pred) const
        {
            for (std::uint64_t c = 0; c < chunks_.size(); ++c) {
                const std::uint64_t base = c << tableChunkShift;
                for (std::uint64_t j = 0; j < chunks_[c].size(); ++j) {
                    if (!pred(base + j, chunks_[c][j]))
                        return false;
                }
            }
            return true;
        }

        std::size_t residentBytes() const
        {
            std::size_t bytes =
                chunks_.capacity() * sizeof(std::vector<std::int64_t>);
            for (const auto &chunk : chunks_)
                bytes += chunk.capacity() * sizeof(std::int64_t);
            return bytes;
        }

      private:
        std::vector<std::vector<std::int64_t>> chunks_;
    };

    std::uint64_t blockOf(std::uint64_t ppn) const
    {
        return ppn / pagesPerBlock_;
    }

    /** Grab the next free physical page, running GC if required. */
    std::uint64_t allocPage(FtlWriteOutcome &outcome, Tick now);

    /** Relocate all valid pages out of a block, then erase it. */
    void reclaimBlock(std::uint64_t block, FtlWriteOutcome &outcome,
                      Tick now);

    void eraseBlock(std::uint64_t block, FtlWriteOutcome &outcome,
                    Tick now);

    /** Pick the fullest-invalid candidate block for GC. */
    std::int64_t pickGcVictim() const;

    void maybeWearLevel(FtlWriteOutcome &outcome, Tick now);

    /** True while retiring one more block keeps enough live blocks
     * for the logical space plus GC headroom. */
    bool canRetire() const;

    /** Slow-check helper: full consistency audit on every mutation
     * for small FTLs, sampled on big ones (the audit is linear in the
     * allocated map chunks and the blocks, so auditing a multi-GB
     * channel per write would swamp the debug presets). Always true
     * when due-sampling skips the audit. */
    bool auditIfDue() const;

    /** Mutations since the last sampled audit (slow checks only). */
    mutable std::uint64_t mutationsSinceAudit_ = 0;

    std::uint64_t physPages_;
    unsigned pagesPerBlock_;
    std::uint64_t numBlocks_;
    std::uint64_t logicalPages_;
    unsigned gcLowWater_;
    unsigned wearThreshold_;

    DemandTable map_{0};      // lpn -> ppn
    DemandTable reverse_{0};  // ppn -> lpn
    std::vector<std::uint16_t> validCount_;
    std::vector<std::uint32_t> eraseCount_;
    std::vector<bool> blockFree_;
    /** Permanently retired (grown-bad) blocks: never free, never
     * allocated, always empty. */
    std::vector<bool> blockRetired_;
    /** Blocks that suffered a program failure; retired at their next
     * erase (grown-bad detection as real FTLs do it). */
    std::vector<bool> pendingRetire_;
    std::deque<std::uint64_t> freeBlocks_;

    std::int64_t activeBlock_ = unmapped;
    unsigned nextPageInActive_ = 0;

    std::uint64_t totalErases_ = 0;
    std::uint64_t totalMoves_ = 0;
    std::uint64_t hostWrites_ = 0;
    std::uint64_t flashWrites_ = 0;

    fault::FaultInjector *faults_ = nullptr;
    double programFailP_ = 0.0;
    double eraseFailP_ = 0.0;
    std::string faultTarget_;
    std::uint64_t retiredBlocks_ = 0;
    std::uint64_t programFailures_ = 0;
    /** Live blocks needed for the logical space + GC headroom. */
    std::uint64_t minLiveBlocks_ = 0;
};

/**
 * The Iridium flash controller: 16 channels, each with its own FTL,
 * die timing state and page register.
 */
class FlashController : public MemDevice
{
  public:
    explicit FlashController(const FlashParams &params,
                             stats::StatGroup *parent = nullptr);

    Tick access(AccessType type, Addr addr, unsigned size,
                Tick now) override;

    /** Total addressable capacity of the device in bytes. */
    std::uint64_t capacityBytes() const;

    const FlashParams &params() const { return params_; }

    /** Flush every channel's dirty write buffer at the given time.
     * @return tick at which the last flush completes. */
    Tick drainWrites(Tick now);

    /** Flush one channel's write buffer. */
    Tick drainChannel(unsigned channel, Tick now);

    /** Channel that owns a device address. */
    unsigned channelOf(Addr addr) const { return channelIndex(addr); }

    unsigned numChannels() const { return params_.numChannels; }

    double writeAmplification() const;

    /** Attach a fault injector to every channel's FTL (nullptr
     * detaches); the params' program-failure probability applies and
     * erases never fail. */
    void setFaultInjector(fault::FaultInjector *injector);

    /** Retune the program-failure probability at runtime (scheduled
     * wear-burst scenarios) and re-attach the last injector given to
     * setFaultInjector with the new rate. */
    void setWearRate(double program_fail_probability);

    const stats::StatGroup &statGroup() const { return statGroup_; }

  private:
    struct WriteSlot
    {
        std::uint64_t lpn;
        std::uint64_t lastUse;
    };

    struct Channel
    {
        explicit Channel(const FlashParams &params);

        Ftl ftl;
        Tick busyUntil = 0;
        /** Logical page currently in the read register, or -1. */
        std::int64_t readRegisterLpn = -1;
        /** Dirty pages gathering in the write buffer. */
        std::vector<WriteSlot> writeSlots;
        std::uint64_t useCounter = 0;
    };

    unsigned channelIndex(Addr addr) const;
    std::uint64_t channelOffset(Addr addr) const;
    Tick transferTime(unsigned size) const;

    /** Index of lpn's write slot, or -1. */
    int findWriteSlot(const Channel &channel,
                      std::uint64_t lpn) const;

    /** Program one write slot through the FTL; returns cost. */
    Tick flushSlot(Channel &channel, std::size_t slot, Tick now);

    FlashParams params_;
    std::uint64_t channelBytes_;
    std::vector<Channel> channels_;
    fault::FaultInjector *faults_ = nullptr;

    stats::StatGroup statGroup_;
    stats::Scalar lineReads_;
    stats::Scalar lineWrites_;
    stats::Scalar pageSenses_;
    stats::Scalar pagePrograms_;
    stats::Scalar registerHits_;
    stats::Scalar gcMoves_;
    stats::Scalar erases_;
    stats::Scalar programFailures_;
    stats::Scalar badBlocks_;
};

} // namespace mercury::mem

#endif // MERCURY_MEM_FLASH_HH
