/**
 * @file
 * Eviction policies: strict LRU (memcached 1.4) and the "Bags"
 * pseudo-LRU from Wiggins & Langston's memcached 1.6 scalability work
 * (paper Sec. 3.6).
 *
 * Strict LRU reorders its list on every access, which is why it needs
 * the global cache lock. Bags only appends on insert and lets a
 * housekeeping pass demote items between age bags, so GETs touch no
 * shared list state -- the property that lets memcached scale past a
 * few threads.
 */

#ifndef MERCURY_KVSTORE_EVICTION_HH
#define MERCURY_KVSTORE_EVICTION_HH

#include <array>
#include <cstdint>
#include <memory>

#include "kvstore/item.hh"

namespace mercury::kvstore
{

enum class EvictionPolicyKind { StrictLru, Bags };

/** Intrusive doubly-linked list over Item::lruPrev/lruNext. */
class ItemList
{
  public:
    void pushFront(Item *item);
    void pushBack(Item *item);
    void unlink(Item *item);

    Item *front() const { return head_; }
    Item *back() const { return tail_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** True if @p item is reachable from head_ (O(n); slow checks). */
    bool contains(const Item *item) const;

    /**
     * Full well-formedness audit: forward walk matches size(),
     * prev/next pointers mirror each other, and the ends are
     * terminated. O(n); meant for tests and MERCURY_ASSERT_SLOW.
     */
    bool checkWellFormed() const;

  private:
    Item *head_ = nullptr;
    Item *tail_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * Per-slab-class eviction policy interface.
 *
 * The policy tracks items but never frees them; the Store owns
 * allocation. victim() proposes the coldest candidate; the Store
 * removes it via onRemove() before recycling the chunk.
 */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    /** A freshly stored item enters the hot end. */
    virtual void onInsert(Item *item, std::uint32_t now) = 0;

    /** The item was read. */
    virtual void onAccess(Item *item, std::uint32_t now) = 0;

    /** The item is leaving the store (delete/evict/expire). */
    virtual void onRemove(Item *item) = 0;

    /** Coldest candidate, or nullptr if empty. Does not unlink. */
    virtual Item *victim(std::uint32_t now) = 0;

    /** Periodic housekeeping (bag demotion). */
    virtual void age(std::uint32_t /* now */) {}

    /** Number of list-reordering operations performed; the proxy for
     * LRU lock contention used by the baseline scaling model. */
    virtual std::uint64_t reorderOps() const = 0;

    std::size_t trackedItems() const { return tracked_; }

  protected:
    std::size_t tracked_ = 0;
};

/** Classic move-to-front LRU (memcached 1.4). */
class StrictLru : public EvictionPolicy
{
  public:
    void onInsert(Item *item, std::uint32_t now) override;
    void onAccess(Item *item, std::uint32_t now) override;
    void onRemove(Item *item) override;
    Item *victim(std::uint32_t now) override;
    std::uint64_t reorderOps() const override { return reorders_; }

  private:
    ItemList list_;
    std::uint64_t reorders_ = 0;
};

/**
 * Bags pseudo-LRU: three age bags. Inserts append to the newest bag;
 * accesses only stamp Item::lastAccess; age() demotes stale items one
 * bag at a time; eviction takes from the oldest bag, giving recently
 * accessed items a second chance.
 */
class BagLru : public EvictionPolicy
{
  public:
    /** @param bag_age_seconds item age before demotion to the next
     * bag; also the second-chance recency window. */
    explicit BagLru(std::uint32_t bag_age_seconds = 60);

    void onInsert(Item *item, std::uint32_t now) override;
    void onAccess(Item *item, std::uint32_t now) override;
    void onRemove(Item *item) override;
    Item *victim(std::uint32_t now) override;
    void age(std::uint32_t now) override;
    std::uint64_t reorderOps() const override { return reorders_; }

    std::size_t bagSize(unsigned bag) const;

  private:
    static constexpr unsigned numBags = 3;

    std::array<ItemList, numBags> bags_;
    std::uint32_t bagAgeSeconds_;
    std::uint64_t reorders_ = 0;
};

/** Factory. */
std::unique_ptr<EvictionPolicy>
makeEvictionPolicy(EvictionPolicyKind kind);

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_EVICTION_HH
