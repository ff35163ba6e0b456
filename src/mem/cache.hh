/**
 * @file
 * Set-associative cache model and a two/three-level hierarchy.
 *
 * The hierarchy is the one the paper sweeps: split 32 KiB L1I/L1D per
 * core, with an optional unified 2 MB L2. Mercury configurations drop
 * the L2 entirely (Sec. 4.1.3) while Iridium requires it to hold the
 * instruction footprint in front of flash (Sec. 4.2.1).
 */

#ifndef MERCURY_MEM_CACHE_HH
#define MERCURY_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::mem
{

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * kiB;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    /** Lookup/hit latency of this level. */
    Tick hitLatency = 1 * tickNs;
};

/** A line evicted to make room for a fill. */
struct Victim
{
    Addr lineAddr;
    bool dirty;
};

/**
 * A single set-associative cache array with true-LRU replacement.
 *
 * Tag state only; the simulator never stores data in caches (the
 * functional key-value store holds real data natively). Line size
 * and set count must be powers of two, so lines, sets and tags are
 * shifts and masks of the address.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /** Probe for a line; updates LRU on hit. */
    bool lookup(Addr addr);

    /** Probe without disturbing replacement state. */
    bool contains(Addr addr) const;

    /**
     * Install the line containing addr.
     *
     * @return the displaced line, if a valid line was evicted.
     */
    std::optional<Victim> insert(Addr addr, bool dirty);

    /** Mark a (present) line dirty; returns false if absent. */
    bool markDirty(Addr addr);

    /** Remove a line if present (used for invalidations). */
    void invalidate(Addr addr);

    /** Drop all lines. */
    void flush();

    const CacheParams &params() const { return params_; }

    unsigned numSets() const { return numSets_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t lineAddr(Addr addr) const;
    std::uint64_t setIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    CacheParams params_;
    unsigned numSets_;
    unsigned lineShift_;
    unsigned setShift_;
    std::uint64_t setMask_;
    std::uint64_t nextStamp_ = 1;
    std::vector<Line> lines_;
};

/** Kind of access issued by a core. */
enum class CpuAccessKind { IFetch, Load, Store };

/** Where in the hierarchy an access was serviced. */
enum class ServicedBy { L1, L2, Memory };

/** Timing outcome of one hierarchy access. */
struct AccessResult
{
    /** Absolute completion tick. */
    Tick completion;
    ServicedBy source;
};

/** Configuration of a core's cache hierarchy. */
struct HierarchyParams
{
    std::string name = "caches";
    CacheParams l1i{"l1i", 32 * kiB, 2, 64, 1 * tickNs};
    CacheParams l1d{"l1d", 32 * kiB, 4, 64, 1 * tickNs};
    /** Present only when hasL2 is true. */
    bool hasL2 = false;
    CacheParams l2{"l2", 2 * miB, 8, 64, 20 * tickNs};

    /**
     * Write-through stores: every store is also forwarded to the
     * backing device synchronously and lines are never dirty. Used
     * for the Iridium stack, where there is no DRAM to hold dirty
     * state and every persistent write must program flash.
     */
    bool writeThroughStores = false;
};

/**
 * Per-core cache hierarchy in front of a shared memory device.
 *
 * Write-back, write-allocate. Dirty victims are written to the next
 * level off the critical path (the writeback occupies the memory
 * device but does not extend the triggering access).
 */
class CacheHierarchy : public SimObject
{
  public:
    CacheHierarchy(const HierarchyParams &params, MemDevice *memory,
                   stats::StatGroup *parent = nullptr);

    /** Issue one access at absolute tick @p now. */
    AccessResult access(CpuAccessKind kind, Addr addr, Tick now);

    /** Drop all cached state (e.g. between measurement phases). */
    void flushAll();

    bool hasL2() const { return params_.hasL2; }

    const HierarchyParams &params() const { return params_; }

    double l1iMissRate() const;
    double l1dMissRate() const;
    double l2MissRate() const;

    Counter memoryAccesses() const
    {
        return static_cast<Counter>(memAccesses_.value());
    }

    void reset() override;

  private:
    /** Service a miss from the level below L1. */
    AccessResult fillFromBelow(Addr line_addr, bool store, Tick now);

    HierarchyParams params_;
    MemDevice *memory_;

    SetAssocCache l1i_;
    SetAssocCache l1d_;
    std::optional<SetAssocCache> l2_;

    stats::StatGroup statGroup_;
    stats::Scalar l1iHits_;
    stats::Scalar l1iMisses_;
    stats::Scalar l1dHits_;
    stats::Scalar l1dMisses_;
    stats::Scalar l2Hits_;
    stats::Scalar l2Misses_;
    stats::Scalar writebacks_;
    stats::Scalar memAccesses_;
};

} // namespace mercury::mem

#endif // MERCURY_MEM_CACHE_HH
