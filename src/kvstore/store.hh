/**
 * @file
 * The memcached-style key-value store.
 *
 * Combines the slab allocator, chained hash table and a strict LRU
 * per slab class into a store with the operations the timing model
 * issues: get, set and flush_all (a node's cold restart). Items never
 * expire: the paper's evaluation sets no TTL.
 *
 * A Store is used from one host thread at a time: it takes no locks.
 * Parallel sweeps and clusters give every node its own store.
 *
 * The store is functional (it really stores bytes); the timing
 * simulator drives it through the *Traced variants, which report the
 * exact structures a request walked so the CPU/memory models can
 * charge time for them.
 */

#ifndef MERCURY_KVSTORE_STORE_HH
#define MERCURY_KVSTORE_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kvstore/eviction.hh"
#include "kvstore/hash_table.hh"
#include "kvstore/slab.hh"
#include "sim/stats.hh"

namespace mercury::kvstore
{

/**
 * Read by no code: the store takes no locks. Kept, with
 * StoreParams::locking, only because simbench still assigns it; both
 * go in the next change to the benchmark.
 */
enum class LockingMode { Global, Striped };

/** Static configuration of a store instance. */
struct StoreParams
{
    std::string name = "store";
    std::uint64_t memLimit = 64 * miB;
    unsigned hashPower = 16;
    /** Unused; see EvictionPolicyKind. */
    EvictionPolicyKind eviction = EvictionPolicyKind::StrictLru;
    /** Unused; see LockingMode. */
    LockingMode locking = LockingMode::Global;
    SlabParams slab{};
};

/** Outcome of a set. */
enum class StoreStatus
{
    Stored,
    OutOfMemory, ///< allocation failed and nothing evictable
    BadValue,    ///< empty or over-long key
};

/** Result of a get. */
struct GetResult
{
    bool hit = false;
    std::string value;
    std::uint32_t flags = 0;
};

/** What a request touched; consumed by the timing trace generator. */
struct ProbeTrace
{
    /** Bucket head slot that was read. */
    const void *bucketAddr = nullptr;
    /** Host-layout-independent index of that slot (timing layers
     * must map this, not the pointer, to stay deterministic). */
    std::uint64_t bucketIndex = 0;
    /** Headers of chain items inspected, in walk order. */
    std::vector<const void *> chainItems;
    /** The item finally operated on (hit item / new item). */
    const void *itemAddr = nullptr;
    /** Value length of the item operated on. */
    std::uint32_t valueLen = 0;
    /** Headers of items evicted to make room. */
    std::vector<const void *> evictedItems;
    bool hit = false;

    /** Reset every field, keeping the vectors' capacity. */
    void
    clear()
    {
        bucketAddr = nullptr;
        bucketIndex = 0;
        chainItems.clear();
        itemAddr = nullptr;
        valueLen = 0;
        evictedItems.clear();
        hit = false;
    }
};

/**
 * Operation counters. A store is single-threaded, so the atomics are
 * not needed; they stay until the benchmark stops calling load().
 */
struct StoreCounters
{
    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> getHits{0};
    std::atomic<std::uint64_t> getMisses{0};
    std::atomic<std::uint64_t> sets{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> outOfMemory{0};
};

class Store
{
  public:
    explicit Store(const StoreParams &params);
    ~Store();

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    // --- Operations ---------------------------------------------------

    GetResult get(std::string_view key);

    StoreStatus set(std::string_view key, std::string_view value,
                    std::uint32_t flags = 0);

    /** Invalidate everything stored so far (lazy reclamation). */
    void flushAll();

    // --- Traced variants for the timing simulator -------------------

    GetResult getTraced(std::string_view key, ProbeTrace &trace);

    /** @p ttl must be 0: it stays only while simbench passes it. */
    StoreStatus setTraced(std::string_view key, std::string_view value,
                          std::uint32_t flags, std::uint32_t ttl,
                          ProbeTrace &trace);

    // --- Introspection ------------------------------------------------

    std::size_t itemCount() const;
    std::uint64_t usedBytes() const;
    std::uint64_t memLimit() const { return params_.memLimit; }
    const StoreCounters &counters() const { return counters_; }
    const SlabAllocator &slabs() const { return slabs_; }
    const HashTable &table() const { return table_; }
    const StoreParams &params() const { return params_; }

    /**
     * Publish the op counters into a stats registry as formula
     * stats under a group named after this store. Idempotent: a
     * second call replaces the previous registration.
     */
    void registerStats(stats::StatGroup *parent);

    /** Verify internal invariants (test hook): every linked item is
     * tracked by exactly one LRU, accounting matches, etc. */
    bool checkConsistency() const;

  private:
    bool itemDead(const Item *item) const;

    /** Allocate a chunk for a class, evicting as needed. */
    void *allocateWithEviction(unsigned cls, ProbeTrace *trace);

    /** Unlink + free an item. */
    void destroyItem(Item *item);

    Item *buildItem(void *chunk, unsigned cls, std::string_view key,
                    std::string_view value, std::uint32_t flags);

    StoreStatus storeInternal(std::string_view key,
                              std::string_view value,
                              std::uint32_t flags, ProbeTrace *trace);

    StoreParams params_;
    SlabAllocator slabs_;
    HashTable table_;
    /** One LRU per slab class. */
    std::vector<StrictLru> lrus_;

    std::uint64_t casCounter_ = 0;
    /** Items with casId <= flushCas_ are dead. */
    std::uint64_t flushCas_ = 0;

    StoreCounters counters_;

    /** Registry bridge built by registerStats(). */
    struct RegisteredStats;
    std::unique_ptr<RegisteredStats> stats_;
};

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_STORE_HH
