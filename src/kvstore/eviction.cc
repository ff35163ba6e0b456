#include "kvstore/eviction.hh"

#include "sim/contract.hh"

namespace mercury::kvstore
{

void
ItemList::pushFront(Item *item)
{
    MERCURY_EXPECTS(item != nullptr, "pushFront of null item");
    MERCURY_EXPECTS(!item->lruPrev && !item->lruNext && item != head_,
                    "pushFront of an item already linked in a list");
    item->lruPrev = nullptr;
    item->lruNext = head_;
    if (head_)
        head_->lruPrev = item;
    head_ = item;
    if (!tail_)
        tail_ = item;
    ++size_;
    MERCURY_ASSERT_SLOW(checkWellFormed(),
                        "LRU list malformed after pushFront");
}

void
ItemList::pushBack(Item *item)
{
    MERCURY_EXPECTS(item != nullptr, "pushBack of null item");
    MERCURY_EXPECTS(!item->lruPrev && !item->lruNext && item != tail_,
                    "pushBack of an item already linked in a list");
    item->lruNext = nullptr;
    item->lruPrev = tail_;
    if (tail_)
        tail_->lruNext = item;
    tail_ = item;
    if (!head_)
        head_ = item;
    ++size_;
    MERCURY_ASSERT_SLOW(checkWellFormed(),
                        "LRU list malformed after pushBack");
}

void
ItemList::unlink(Item *item)
{
    MERCURY_EXPECTS(item != nullptr, "unlink of null item");
    MERCURY_EXPECTS(size_ > 0, "unlink from empty list");
    MERCURY_EXPECTS(item->lruPrev != nullptr || item == head_,
                    "unlink of an item that is not in this list");
    MERCURY_EXPECTS(item->lruNext != nullptr || item == tail_,
                    "unlink of an item that is not in this list");
    MERCURY_ASSERT_SLOW(contains(item),
                        "unlink of an item from a different list");
    if (item->lruPrev)
        item->lruPrev->lruNext = item->lruNext;
    else
        head_ = item->lruNext;
    if (item->lruNext)
        item->lruNext->lruPrev = item->lruPrev;
    else
        tail_ = item->lruPrev;
    item->lruPrev = nullptr;
    item->lruNext = nullptr;
    --size_;
    MERCURY_ASSERT_SLOW(checkWellFormed(),
                        "LRU list malformed after unlink");
}

bool
ItemList::contains(const Item *item) const
{
    std::size_t walked = 0;
    for (const Item *it = head_; it; it = it->lruNext) {
        if (it == item)
            return true;
        if (++walked > size_)
            return false;
    }
    return false;
}

bool
ItemList::checkWellFormed() const
{
    if (head_ == nullptr || tail_ == nullptr)
        return head_ == nullptr && tail_ == nullptr && size_ == 0;
    if (head_->lruPrev != nullptr || tail_->lruNext != nullptr)
        return false;

    std::size_t walked = 0;
    const Item *prev = nullptr;
    for (const Item *it = head_; it; it = it->lruNext) {
        if (it->lruPrev != prev)
            return false;
        if (++walked > size_)
            return false;
        prev = it;
    }
    return prev == tail_ && walked == size_;
}

void
StrictLru::onInsert(Item *item, std::uint32_t now)
{
    item->lastAccess = now;
    list_.pushFront(item);
    ++tracked_;
}

void
StrictLru::onAccess(Item *item, std::uint32_t now)
{
    item->lastAccess = now;
    // The move-to-front that makes 1.4 serialize on the cache lock.
    list_.unlink(item);
    list_.pushFront(item);
    ++reorders_;
}

void
StrictLru::onRemove(Item *item)
{
    list_.unlink(item);
    MERCURY_ASSERT(tracked_ > 0, "remove from empty policy");
    --tracked_;
}

Item *
StrictLru::victim(std::uint32_t)
{
    return list_.back();
}

BagLru::BagLru(std::uint32_t bag_age_seconds)
    : bagAgeSeconds_(bag_age_seconds)
{}

void
BagLru::onInsert(Item *item, std::uint32_t now)
{
    item->lastAccess = now;
    item->bagIndex = 0;
    bags_[0].pushBack(item);
    ++tracked_;
}

void
BagLru::onAccess(Item *item, std::uint32_t now)
{
    // The whole point of Bags: a GET touches no shared list state.
    item->lastAccess = now;
}

void
BagLru::onRemove(Item *item)
{
    bags_[item->bagIndex].unlink(item);
    MERCURY_ASSERT(tracked_ > 0, "remove from empty policy");
    --tracked_;
}

void
BagLru::age(std::uint32_t now)
{
    // Demote a bounded number of stale items per pass. Oldest bags
    // are processed first so an item moves at most one bag per pass.
    constexpr unsigned max_moves_per_pass = 64;
    unsigned moves = 0;
    for (int bag = static_cast<int>(numBags) - 2; bag >= 0; --bag) {
        const auto b = static_cast<unsigned>(bag);
        while (moves < max_moves_per_pass) {
            Item *item = bags_[b].front();
            if (!item || now - item->lastAccess < bagAgeSeconds_)
                break;
            bags_[b].unlink(item);
            item->bagIndex = static_cast<std::uint8_t>(b + 1);
            bags_[b + 1].pushBack(item);
            ++reorders_;
            ++moves;
        }
    }
}

Item *
BagLru::victim(std::uint32_t now)
{
    // Take from the oldest non-empty bag; give recently-touched
    // items a second chance by promoting them back to the newest bag
    // and re-scanning (bounded attempts).
    for (unsigned attempt = 0; attempt < 64; ++attempt) {
        Item *item = nullptr;
        int bag = -1;
        for (int b = numBags - 1; b >= 0; --b) {
            item = bags_[static_cast<unsigned>(b)].front();
            if (item) {
                bag = b;
                break;
            }
        }
        if (!item)
            return nullptr;
        if (bag > 0 && now - item->lastAccess < bagAgeSeconds_) {
            bags_[static_cast<unsigned>(bag)].unlink(item);
            item->bagIndex = 0;
            bags_[0].pushBack(item);
            ++reorders_;
            continue;
        }
        return item;
    }
    // Everything is hot; fall back to the coldest candidate anyway.
    for (int b = numBags - 1; b >= 0; --b) {
        if (Item *item = bags_[static_cast<unsigned>(b)].front())
            return item;
    }
    return nullptr;
}

std::size_t
BagLru::bagSize(unsigned bag) const
{
    MERCURY_EXPECTS(bag < numBags, "bag index out of range: ", bag);
    return bags_[bag].size();
}

std::unique_ptr<EvictionPolicy>
makeEvictionPolicy(EvictionPolicyKind kind)
{
    switch (kind) {
      case EvictionPolicyKind::StrictLru:
        return std::make_unique<StrictLru>();
      case EvictionPolicyKind::Bags:
        return std::make_unique<BagLru>();
    }
    return nullptr;
}

} // namespace mercury::kvstore
