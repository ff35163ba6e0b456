/**
 * @file
 * Kernel-bypass datapath model: poll-mode UDP fast path with RX/TX
 * descriptor batching, and a LaKe-style on-NIC GET cache.
 *
 * The paper's Fig. 4 charges 87-97 % of a small GET to the Linux
 * network stack. This module models two standard ways that
 * time is bought back:
 *
 *  - DatapathKind::Bypass swaps the per-packet kernel path for a
 *    user-level poll-mode driver (DPDK-style): no syscalls, no
 *    socket state, per-*batch* descriptor-ring and doorbell costs
 *    amortized over rxBatch/txBatch packets. The CPU-side costs
 *    live in server::Calibration (bypass* fields); this header only
 *    carries the knobs.
 *
 *  - NicGetCache is a small NIC-resident LRU that answers hot GETs
 *    at wire latency without waking a core (LaKe, PAPERS.md). SETs
 *    and DELETEs invalidate. The cache is a *value* cache: a hit
 *    returns exactly the bytes a store read would, which
 *    tests/property pins.
 *
 * Every knob defaults off; a default DatapathParams reproduces the
 * kernel path byte-for-byte.
 */

#ifndef MERCURY_NET_DATAPATH_HH
#define MERCURY_NET_DATAPATH_HH

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::net
{

/** Which request path the server's CPU model walks. */
enum class DatapathKind : std::uint8_t
{
    KernelTcp, ///< Linux TCP path, as calibrated for Fig. 4
    /** GETs over Linux UDP (Facebook-style): connectionless receive
     * and transmit paths with far less kernel work per packet. PUTs
     * stay on TCP for reliability, as in production deployments. */
    KernelUdp,
    Bypass,    ///< user-level poll-mode driver, batched descriptors
};

/** Static configuration of a node's datapath. All defaults off. */
struct DatapathParams
{
    DatapathKind kind = DatapathKind::KernelTcp;

    /** RX descriptors fetched per doorbell/ring refill (bypass).
     * Per-batch costs in the calibration are divided by this. */
    unsigned rxBatch = 1;

    /** TX descriptors published per doorbell (bypass). */
    unsigned txBatch = 1;

    /** On-NIC GET cache capacity in entries; 0 disables the cache
     * entirely (no lookup, no stats, no timing change). */
    unsigned nicCacheEntries = 0;

    /** Largest value the NIC cache will hold; bigger responses
     * always go to the core (LaKe caches small hot items). */
    std::uint32_t nicCacheMaxValueBytes = 1024;

    /** Nominal SRAM cost of one cache slot (key + value + tag),
     * used to convert a physical-model MB budget into entries. */
    static constexpr std::uint32_t nicCacheEntryBytes = 128;

    /** Hardware lookup + response-build latency of a cache hit,
     * charged instead of any CPU phase. */
    static constexpr Tick nicCacheLookupLatency = 300 * tickNs;

    bool
    bypass() const
    {
        return kind == DatapathKind::Bypass;
    }

    bool
    nicCacheEnabled() const
    {
        return nicCacheEntries > 0;
    }
};

/**
 * Deterministic NIC-resident GET cache: LRU over (key -> value)
 * with SET/DELETE invalidation.
 *
 * Determinism contract: iteration-order-sensitive state lives in a
 * std::list (recency order) indexed by an ordered std::map -- no
 * unordered containers, no pointer keys -- so eviction order is a
 * pure function of the operation sequence.
 */
class NicGetCache
{
  public:
    /**
     * @param params sizing knobs (nicCacheEntries must be > 0)
     * @param parent stats parent; nullptr keeps the group detached
     * @param name stat group name under @p parent
     */
    explicit NicGetCache(const DatapathParams &params,
                         stats::StatGroup *parent = nullptr,
                         const std::string &name = "nicCache");

    /** Look up @p key. A hit promotes the entry and returns a view
     * of the cached value. */
    std::optional<std::string_view> lookup(std::string_view key);

    /**
     * Insert/refresh @p key after a store read returned @p value.
     * Values over the configured size cap are not cached.
     */
    void fill(std::string_view key, std::string_view value);

    /** Drop @p key (SET/DELETE seen by the NIC). */
    void invalidate(std::string_view key);

    std::size_t size() const { return index_.size(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t fills() const { return fills_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t invalidations() const
    {
        return invalidations_.value();
    }

  private:
    struct Entry
    {
        std::string key;
        std::string value;
    };

    using LruList = std::list<Entry>;

    void erase(LruList::iterator it);

    DatapathParams params_;

    LruList lru_; ///< front = most recently used
    std::map<std::string, LruList::iterator, std::less<>> index_;

    stats::StatGroup group_;
    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter fills_;
    stats::Counter evictions_;
    stats::Counter invalidations_;
    stats::Formula hitRate_;
};

} // namespace mercury::net

#endif // MERCURY_NET_DATAPATH_HH
