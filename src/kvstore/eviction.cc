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
StrictLru::onInsert(Item *item)
{
    list_.pushFront(item);
}

void
StrictLru::onAccess(Item *item)
{
    list_.unlink(item);
    list_.pushFront(item);
}

void
StrictLru::onRemove(Item *item)
{
    list_.unlink(item);
}

} // namespace mercury::kvstore
