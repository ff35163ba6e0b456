/**
 * @file
 * Kernel-bypass datapath model: poll-mode UDP fast path with RX/TX
 * descriptor batching, RSS flow steering, and a LaKe-style on-NIC
 * GET cache.
 *
 * The paper's Fig. 4 charges 87-97 % of a small GET to the Linux
 * network stack. This module models the three standard ways that
 * time is bought back:
 *
 *  - DatapathKind::Bypass swaps the per-packet kernel path for a
 *    user-level poll-mode driver (DPDK-style): no syscalls, no
 *    socket state, per-*batch* descriptor-ring and doorbell costs
 *    amortized over rxBatch/txBatch packets. The CPU-side costs
 *    live in server::Calibration (bypass* fields); this header only
 *    carries the knobs.
 *
 *  - rss steers flows to per-core NIC RX queues (Toeplitz-style
 *    hash over the flow identity), so the multi-core stack walk
 *    models n independent queues instead of one shared softirq
 *    path. rssQueueFor() is the steering function; it must be a
 *    pure function of (flow hash, queue count) so runs stay
 *    deterministic.
 *
 *  - NicGetCache is a small NIC-resident LRU that answers hot GETs
 *    at wire latency without waking a core (LaKe, PAPERS.md). SETs
 *    and DELETEs invalidate; entries carry the item's absolute
 *    expiry time so a cached TTL item can never outlive the store's
 *    copy. The cache is a *value* cache: a hit returns exactly the
 *    bytes a store read would, which tests/property pins.
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

    /** Steer flows to per-core NIC RX queues in StackSimulation
     * instead of sharing one softirq path. */
    bool rss = false;

    /** On-NIC GET cache capacity in entries; 0 disables the cache
     * entirely (no lookup, no stats, no timing change). */
    unsigned nicCacheEntries = 0;

    /** Largest value the NIC cache will hold; bigger responses
     * always go to the core (LaKe caches small hot items). */
    std::uint32_t nicCacheMaxValueBytes = 1024;

    /** Nominal SRAM cost of one cache slot (key + value + tag),
     * used to convert a physical-model MB budget into entries. */
    std::uint32_t nicCacheEntryBytes = 128;

    /** Hardware lookup + response-build latency of a cache hit,
     * charged instead of any CPU phase. */
    Tick nicCacheLookupLatency = 300 * tickNs;

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

/** FNV-1a flow/key hash used for RSS steering. */
std::uint64_t flowHash(std::string_view key);

/** RSS indirection: which RX queue a flow lands on. Pure function
 * of the hash and queue count (deterministic across runs). */
unsigned rssQueueFor(std::uint64_t flow_hash, unsigned queues);

/**
 * Deterministic NIC-resident GET cache: LRU over (key -> value)
 * with SET/DELETE invalidation and absolute-expiry awareness.
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

    /**
     * Look up @p key at @p logical_clock (same clock as the expiry
     * passed to fill; 0 works when nothing ever has a TTL). A hit
     * promotes the entry and returns a view of the cached value; a
     * present-but-expired entry is dropped and counts as a miss.
     */
    std::optional<std::string_view>
    lookup(std::string_view key, std::uint64_t logical_clock = 0);

    /**
     * Insert/refresh @p key after a store read returned @p value.
     * @p expiry is the item's absolute expiry time (0 = never) on
     * the same clock lookup uses. Values over the configured size
     * cap are not cached.
     */
    void fill(std::string_view key, std::string_view value,
              std::uint64_t expiry = 0);

    /** Drop @p key (SET/DELETE seen by the NIC). */
    void invalidate(std::string_view key);

    /** Drop everything (flush_all). */
    void clear();

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
        std::uint64_t expiry = 0;
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
