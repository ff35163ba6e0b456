/**
 * @file
 * Chained hash table that doubles in one rehash.
 *
 * The table doubles when the load factor passes a threshold, moving
 * every item to the new bucket array at once. memcached migrates a
 * few buckets per request instead, to keep the rehash out of any one
 * locked request; a Store takes no locks and the timing layer never
 * charges rehash work, so one pass does the same job.
 */

#ifndef MERCURY_KVSTORE_HASH_TABLE_HH
#define MERCURY_KVSTORE_HASH_TABLE_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "kvstore/block_pool.hh"
#include "kvstore/item.hh"

namespace mercury::kvstore
{

/** Result of a probe, including what the walk touched (for the
 * timing layer). */
struct ProbeResult
{
    Item *item = nullptr;
    /** Items inspected, including the match if any. */
    unsigned chainLength = 0;
    /** Address of the bucket head slot that was read. */
    const void *bucketAddr = nullptr;
    /** Index of that slot in the bucket array. Unlike bucketAddr
     * this is independent of the host heap layout, so the timing
     * layer maps it (not the pointer) into the simulated address
     * space. */
    std::uint64_t bucketIndex = 0;
};

class HashTable
{
  public:
    /** @param initial_power log2 of the initial bucket count. */
    explicit HashTable(unsigned initial_power = 16);

    /** Find an item; counts the chain walk. */
    ProbeResult find(std::string_view key, std::uint64_t hash);

    /**
     * Link an item into its bucket; the table then doubles if the
     * load factor has reached the threshold.
     * @pre no item with the same key is present.
     */
    void insert(Item *item, std::uint64_t hash);

    /** Unlink an item; returns it, or nullptr if absent. */
    Item *remove(std::string_view key, std::uint64_t hash);

    /** Items currently linked. */
    std::size_t size() const { return size_; }

    std::size_t buckets() const { return buckets_.size(); }

    /** Current load factor (items per bucket). */
    double
    loadFactor() const
    {
        return static_cast<double>(size()) /
               static_cast<double>(buckets_.size());
    }

    /**
     * Full structural audit: bucket chains are cycle-free and the
     * linked item count matches size(). O(items); meant for tests
     * and MERCURY_ASSERT_SLOW.
     */
    bool checkIntegrity() const;

    /** MERCURY_ASSERT wrapper around checkIntegrity(), so callers
     * (tests) get the formatted contract diagnostic. */
    void validate() const;

    /** Visit every item (slow; used by Store::checkConsistency and
     * tests). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &head : buckets_) {
            for (Item *it = head; it; it = it->hNext)
                fn(it);
        }
    }

  private:
    /** Move every item into a bucket array twice the size. */
    void grow();

    static constexpr double expandLoadFactor = 1.5;

    /** A bucket array; large ones come from the block pool. */
    using Buckets = std::vector<Item *, PoolAllocator<Item *>>;

    Buckets buckets_;
    std::size_t size_ = 0;
};

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_HASH_TABLE_HH
