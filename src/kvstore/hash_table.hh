/**
 * @file
 * Chained hash table with memcached-style incremental expansion.
 *
 * The table doubles when the load factor passes a threshold, but
 * migration happens a few buckets at a time, piggybacked on mutating
 * operations, so no single request pays the full rehash (the
 * behaviour Wiggins & Langston analyse when scaling memcached 1.6).
 */

#ifndef MERCURY_KVSTORE_HASH_TABLE_HH
#define MERCURY_KVSTORE_HASH_TABLE_HH

#include <cstdint>
#include <string_view>
#include <vector>

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
    /** Index of that slot within its table. Unlike bucketAddr this
     * is independent of the host heap layout, so the timing layer
     * maps it (not the pointer) into the simulated address space. */
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
     * Link an item into its bucket.
     * @pre no item with the same key is present.
     */
    void insert(Item *item, std::uint64_t hash);

    /** Unlink an item; returns it, or nullptr if absent. */
    Item *remove(std::string_view key, std::uint64_t hash);

    /** Items currently linked. */
    std::size_t size() const { return size_; }

    std::size_t buckets() const { return primary_.size(); }

    bool expanding() const { return expanding_; }

    /** Current load factor (items per bucket). */
    double
    loadFactor() const
    {
        return static_cast<double>(size()) /
               static_cast<double>(primary_.size());
    }

    /**
     * Advance incremental migration by a few buckets. Called
     * internally on mutations; exposed so idle housekeeping can also
     * drive it.
     */
    void migrateStep(unsigned buckets = 2);

    /** Begin doubling if the load factor warrants it. */
    void maybeExpand();

    /**
     * Full structural audit: bucket chains are cycle-free, linked
     * item count matches size(), and the expansion bookkeeping is
     * coherent. O(items); meant for tests and MERCURY_ASSERT_SLOW.
     */
    bool checkIntegrity() const;

    /** MERCURY_ASSERT wrapper around checkIntegrity(), so callers
     * (tests, housekeeping) get the formatted contract diagnostic. */
    void validate() const;

    /** Visit every item (slow; used by flush and tests). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &head : old_) {
            for (Item *it = head; it; it = it->hNext)
                fn(it);
        }
        for (const auto &head : primary_) {
            for (Item *it = head; it; it = it->hNext)
                fn(it);
        }
    }

  private:
    /** Bucket slot (in whichever table currently owns the hash);
     * also yields the slot's index within that table. */
    Item **bucketFor(std::uint64_t hash, std::uint64_t &index);

    static constexpr double expandLoadFactor = 1.5;

    std::vector<Item *> primary_;
    std::vector<Item *> old_;
    bool expanding_ = false;
    /** Next old-table bucket to migrate. */
    std::size_t migrateBucket_ = 0;
    std::size_t size_ = 0;
};

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_HASH_TABLE_HH
