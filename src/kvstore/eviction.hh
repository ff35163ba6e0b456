/**
 * @file
 * Strict move-to-front LRU (memcached 1.4), one list per slab class.
 */

#ifndef MERCURY_KVSTORE_EVICTION_HH
#define MERCURY_KVSTORE_EVICTION_HH

#include <cstddef>

#include "kvstore/item.hh"

namespace mercury::kvstore
{

/**
 * Read by no code: StrictLru is the only policy. Kept, with
 * StoreParams::eviction and ServerModelParams::eviction, only because
 * simbench still assigns it; all three go in the next change to the
 * benchmark.
 */
enum class EvictionPolicyKind { StrictLru };

/** Intrusive doubly-linked list over Item::lruPrev/lruNext. */
class ItemList
{
  public:
    void pushFront(Item *item);
    void unlink(Item *item);

    Item *back() const { return tail_; }
    std::size_t size() const { return size_; }

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
 * Classic move-to-front LRU over one slab class's items.
 *
 * The policy tracks items but never frees them; the Store owns
 * allocation. victim() proposes the coldest item; the Store removes
 * it via onRemove() before recycling the chunk.
 */
class StrictLru
{
  public:
    /** A freshly stored item enters the hot end. */
    void onInsert(Item *item);

    /** The item was read: it moves to the hot end. */
    void onAccess(Item *item);

    /** The item is leaving the store (overwrite/evict/flush). */
    void onRemove(Item *item);

    /** Coldest item, or nullptr if empty. Does not unlink. */
    Item *victim() const { return list_.back(); }

    std::size_t trackedItems() const { return list_.size(); }

  private:
    ItemList list_;
};

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_EVICTION_HH
