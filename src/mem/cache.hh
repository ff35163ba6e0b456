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

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/fetch_memo.hh"
#include "mem/mem_device.hh"
#include "sim/contract.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::mem
{

class DramModel;

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
 *
 * Way w of set s sits at index s * assoc + w of three parallel
 * arrays: a key (tag + 1, or 0 for an invalid way), an LRU stamp and
 * a dirty flag. Invalid ways have stamp 0 and valid ones a stamp of
 * at least 1, so the first way with the smallest stamp is the first
 * invalid way, else the least recently used one.
 */
class SetAssocCache
{
  public:
    /**
     * One scan of a set: the way holding the line on a hit, else the
     * way a fill of the line would take. Valid until this cache next
     * changes.
     */
    struct Probe
    {
        std::size_t way;
        /** The probed address shifted right by the line size. */
        std::uint64_t line;
        bool hit;
    };

    explicit SetAssocCache(const CacheParams &params);

    /** Scan the set of @p addr once, changing nothing. */
    Probe
    probe(Addr addr) const
    {
        const std::uint64_t line = addr >> lineShift_;
        const std::uint64_t key = (line >> setShift_) + 1;
        const std::size_t first = (line & setMask_) * params_.assoc;
        const std::size_t end = first + params_.assoc;
        std::size_t victim = first;
        for (std::size_t way = first; way < end; ++way) {
            if (keys_[way] == key)
                return {way, line, true};
            if (stamps_[way] < stamps_[victim])
                victim = way;
        }
        return {victim, line, false};
    }

    /** Make a hit most recently used; @p dirty also marks it dirty. */
    void
    touch(const Probe &hit, bool dirty)
    {
        stamps_[hit.way] = nextStamp_++;
        dirty_[hit.way] |= dirty;
    }

    /**
     * Install the line of a miss in the way its probe chose.
     *
     * @return the displaced line, if a valid line was evicted.
     */
    std::optional<Victim>
    fill(const Probe &miss, bool dirty)
    {
        std::optional<Victim> victim;
        if (keys_[miss.way] != 0) {
            const std::uint64_t victim_line =
                ((keys_[miss.way] - 1) << setShift_) |
                (miss.line & setMask_);
            victim = Victim{victim_line << lineShift_,
                            dirty_[miss.way] != 0};
        }
        keys_[miss.way] = (miss.line >> setShift_) + 1;
        stamps_[miss.way] = nextStamp_++;
        dirty_[miss.way] = dirty;
        return victim;
    }

    /**
     * Read @p lines lines, @p stride bytes apart from @p addr, each
     * exactly as probe followed by touch(p, false) on a hit or
     * fill(p, false) on a miss would, with the LRU stamp counter in
     * a local for the whole run. After each line's state change it
     * calls @p on_line(hit, line_addr), which must not touch this
     * cache. Only for a cache nothing ever dirties (the L1I).
     */
    template <typename OnLine>
    [[gnu::always_inline]] inline void
    readLines(Addr addr, std::uint64_t lines, std::uint64_t stride,
              OnLine &&on_line)
    {
        std::uint64_t stamp = nextStamp_;
        for (std::uint64_t i = 0; i < lines; ++i, addr += stride) {
            const Probe p = probe(addr);
            MERCURY_ASSERT(dirty_[p.way] == 0,
                           "read-only cache holds a dirty line");
            if (!p.hit)
                keys_[p.way] = (p.line >> setShift_) + 1;
            stamps_[p.way] = stamp++;
            on_line(p.hit, addr);
        }
        nextStamp_ = stamp;
    }

    /** The set @p addr maps to. */
    std::size_t
    setOf(Addr addr) const
    {
        return (addr >> lineShift_) & setMask_;
    }

    /**
     * Write the keys of set @p set of this 2-way cache to @p out,
     * least recently used first (an invalid way counts as least).
     * Two sets that export the same keys behave the same on every
     * later access, wherever their ways sit. Keys are stored in 32
     * bits, which holds every tag of code below 64 TiB.
     *
     * @return false if a key did not fit in 32 bits.
     */
    bool
    exportSet(std::size_t set, std::uint32_t *out) const
    {
        // Invalid ways have stamp 0; a tie is two invalid ways, whose
        // keys are both 0.
        const std::size_t first = set * 2;
        const bool second_older = stamps_[first + 1] < stamps_[first];
        const std::uint64_t older = keys_[first + second_older];
        const std::uint64_t newer = keys_[first + !second_older];
        out[0] = static_cast<std::uint32_t>(older);
        out[1] = static_cast<std::uint32_t>(newer);
        return ((older | newer) >> 32) == 0;
    }

    /**
     * Make every set hold the keys at @p keys, one exportSet block
     * per set in set order, each ranked as exportSet ranks it. Only
     * for a cache nothing ever dirties (the L1I).
     */
    void restore(const std::uint32_t *keys);

    /** Probe without disturbing replacement state. */
    bool contains(Addr addr) const { return probe(addr).hit; }

    /**
     * Install the line containing addr (a present line is refreshed
     * and keeps its dirty bit).
     *
     * @return the displaced line, if a valid line was evicted.
     */
    std::optional<Victim> insert(Addr addr, bool dirty);

    /** Drop all lines. */
    void flush();

    const CacheParams &params() const { return params_; }

    unsigned numSets() const { return numSets_; }

  private:
    CacheParams params_;
    unsigned numSets_;
    unsigned lineShift_;
    unsigned setShift_;
    std::uint64_t setMask_;
    std::uint64_t nextStamp_ = 1;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> dirty_;
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
};

/**
 * Per-core cache hierarchy in front of a shared memory device.
 *
 * Write-back, write-allocate. Dirty victims are written to the next
 * level off the critical path (the writeback occupies the memory
 * device but does not extend the triggering access).
 */
class CacheHierarchy
{
  public:
    /**
     * @p fetch_memo, when given, memoizes fetchPass (see FetchMemo);
     * it must outlive the hierarchy, and every hierarchy sharing it
     * must run on one thread.
     */
    CacheHierarchy(const HierarchyParams &params, MemDevice *memory,
                   stats::StatGroup *parent = nullptr,
                   FetchMemo *fetch_memo = nullptr);

    /**
     * Issue one access at absolute tick @p now. Defined below and
     * forced inline, with the probe it makes on each level, so the
     * core's walk makes no call per access (gcc declines to inline it
     * on its own).
     */
    [[gnu::always_inline]] inline AccessResult
    access(CpuAccessKind kind, Addr addr, Tick now);

    /**
     * Fetch a whole code pass on a core that blocks on every fetch:
     * @p lines instruction fetches, @p stride bytes apart from
     * @p addr, each as access(IFetch) would. Before each fetch the
     * cursor advances by @p issue; the fetch completes at the new
     * cursor (an L1I hit counts as compute); then the line runs
     * @p per_line instructions for @p per_line_ticks, or one more
     * for @p extra_ticks on the first @p extra lines.
     *
     * @return the cursor after the pass, which starts at @p cursor.
     * Issue, hit and line compute time is added to @p compute_ticks
     * and the instructions to @p instructions. The hierarchy's
     * counters are added once per pass.
     *
     * With a fetch memo, a pass the memo has seen from the L1I's
     * current contents is replayed: only its misses go below the L1,
     * and the L1I arrays are left stale until a pass the memo lacks,
     * an access(IFetch) or flushAll.
     */
    Tick fetchPass(Addr addr, std::uint64_t lines, std::uint64_t stride,
                   Tick cursor, Tick issue, std::uint64_t per_line,
                   std::uint64_t extra, Tick per_line_ticks,
                   Tick extra_ticks, Tick *compute_ticks,
                   Counter *instructions);

    /** Drop all cached state (e.g. between measurement phases). */
    void flushAll();

    bool hasL2() const { return params_.hasL2; }

    const HierarchyParams &params() const { return params_; }

    Counter memoryAccesses() const
    {
        return static_cast<Counter>(memAccesses_.value());
    }

    /** Code passes fetchPass replayed from the fetch memo (for
     * tests; not a statistic). */
    std::uint64_t replayedPasses() const { return replayedPasses_; }

    /** Replayed passes whose remaining misses were timed in one step
     * (for tests; not a statistic). */
    std::uint64_t closedReplays() const { return closedReplays_; }

  private:
    /** Service a miss from the level below L1. */
    AccessResult fillFromBelow(Addr line_addr, bool store, Tick now);

    /** Fetch the line of an L1I miss at @p now from below; returns
     * its completion. */
    Tick fetchBelow(Addr line_addr, Tick now);

    /**
     * Replay @p pass, which the memo recorded from the L1I's current
     * state, from @p cursor; returns the cursor after it. On a
     * serialDram_ whose bank holds the whole pass, the misses from
     * the first that finds the bank and port idle on are closed in
     * one step.
     */
    Tick replayPass(const FetchMemo::Transition &pass, Tick cursor,
                    Tick issue, std::uint64_t extra, Tick per_line_ticks,
                    Tick extra_ticks);

    /** Make the L1I arrays hold the memo's state again and leave the
     * memo. */
    void leaveFetchMemo();

    HierarchyParams params_;
    MemDevice *memory_;
    /**
     * memory_, when it is exactly a DramModel (no subclass may
     * override access) with fixedLatencyReads(), 64-byte lines and no
     * L2 in front of it; else nullptr.
     */
    DramModel *serialDram_ = nullptr;

    SetAssocCache l1i_;
    SetAssocCache l1d_;
    std::optional<SetAssocCache> l2_;

    FetchMemo *fetchMemo_;
    /** The memo state the L1I holds, or FetchMemo::none when the
     * L1I is outside the memo. */
    std::uint32_t memoState_ = FetchMemo::none;
    /** True when memoState_ is ahead of the L1I arrays. */
    bool l1iStale_ = false;
    std::uint64_t replayedPasses_ = 0;
    std::uint64_t closedReplays_ = 0;

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

inline AccessResult
CacheHierarchy::fillFromBelow(Addr line_addr, bool store, Tick now)
{
    const unsigned line_bytes = params_.l1d.lineBytes;

    if (l2_) {
        const Tick after_l2 = now + params_.l2.hitLatency;
        const SetAssocCache::Probe probe = l2_->probe(line_addr);
        if (probe.hit) {
            ++l2Hits_;
            l2_->touch(probe, store);
            return {after_l2, ServicedBy::L2};
        }
        ++l2Misses_;
        ++memAccesses_;
        const Tick mem_done = memory_->access(AccessType::Read, line_addr,
                                              line_bytes, after_l2);
        const auto victim = l2_->fill(probe, store);
        if (victim && victim->dirty) {
            ++writebacks_;
            // Off the critical path: occupies the device after the
            // demand fill completes.
            memory_->access(AccessType::Write, victim->lineAddr,
                            line_bytes, mem_done);
        }
        return {mem_done, ServicedBy::Memory};
    }

    ++memAccesses_;
    const Tick mem_done = memory_->access(AccessType::Read, line_addr,
                                          line_bytes, now);
    return {mem_done, ServicedBy::Memory};
}

inline AccessResult
CacheHierarchy::access(CpuAccessKind kind, Addr addr, Tick now)
{
    if (kind == CpuAccessKind::IFetch && memoState_ != FetchMemo::none)
        leaveFetchMemo();
    SetAssocCache &l1 = kind == CpuAccessKind::IFetch ? l1i_ : l1d_;
    stats::Scalar &hits =
        kind == CpuAccessKind::IFetch ? l1iHits_ : l1dHits_;
    stats::Scalar &misses =
        kind == CpuAccessKind::IFetch ? l1iMisses_ : l1dMisses_;

    const bool store = kind == CpuAccessKind::Store;
    const Tick after_l1 = now + l1.params().hitLatency;

    const SetAssocCache::Probe probe = l1.probe(addr);
    if (probe.hit) {
        ++hits;
        l1.touch(probe, store);
        return {after_l1, ServicedBy::L1};
    }

    ++misses;
    const AccessResult below = fillFromBelow(addr, store, after_l1);

    // Nothing below L1 changes l1, so its probe still holds.
    const auto victim = l1.fill(probe, store);
    if (victim && victim->dirty) {
        ++writebacks_;
        if (l2_) {
            l2_->insert(victim->lineAddr, true);
        } else {
            memory_->access(AccessType::Write, victim->lineAddr,
                            l1.params().lineBytes, below.completion);
        }
    }

    return below;
}

} // namespace mercury::mem

#endif // MERCURY_MEM_CACHE_HH
