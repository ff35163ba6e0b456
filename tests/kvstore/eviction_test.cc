/**
 * @file
 * Unit tests for the strict-LRU eviction policy.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kvstore/eviction.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury::kvstore;
using mercury::detail::concat;

class EvictionFixture : public ::testing::Test
{
  protected:
    Item *
    makeItem(const std::string &key)
    {
        const std::size_t size = Item::totalSize(key.size(), 1);
        storage_.push_back(std::make_unique<char[]>(size));
        Item *item = new (storage_.back().get()) Item();
        item->setKey(key);
        item->setValue("x");
        return item;
    }

    std::vector<std::unique_ptr<char[]>> storage_;
};

using StrictLruTest = EvictionFixture;

TEST_F(StrictLruTest, VictimIsOldestInserted)
{
    StrictLru lru;
    Item *a = makeItem("a");
    Item *b = makeItem("b");
    lru.onInsert(a);
    lru.onInsert(b);
    EXPECT_EQ(lru.victim(), a);
}

TEST_F(StrictLruTest, AccessRescuesItem)
{
    StrictLru lru;
    Item *a = makeItem("a");
    Item *b = makeItem("b");
    lru.onInsert(a);
    lru.onInsert(b);
    lru.onAccess(a);
    EXPECT_EQ(lru.victim(), b);
}

TEST_F(StrictLruTest, RemoveDropsFromList)
{
    StrictLru lru;
    Item *a = makeItem("a");
    Item *b = makeItem("b");
    lru.onInsert(a);
    lru.onInsert(b);
    lru.onRemove(a);
    EXPECT_EQ(lru.victim(), b);
    lru.onRemove(b);
    EXPECT_EQ(lru.victim(), nullptr);
    EXPECT_EQ(lru.trackedItems(), 0u);
}

TEST_F(StrictLruTest, EveryAccessReorders)
{
    StrictLru lru;
    Item *a = makeItem("a");
    Item *b = makeItem("b");
    lru.onInsert(a);
    lru.onInsert(b);
    // Reading the coldest item always moves it to the hot end, so the
    // other one becomes the victim (the 1.4 lock problem).
    for (int i = 0; i < 10; ++i) {
        Item *cold = lru.victim();
        Item *warm = cold == a ? b : a;
        lru.onAccess(cold);
        EXPECT_EQ(lru.victim(), warm) << "access " << i;
    }
    EXPECT_EQ(lru.trackedItems(), 2u);
}

TEST_F(StrictLruTest, ExactLruOrderUnderMixedOps)
{
    StrictLru lru;
    Item *items[5];
    for (int i = 0; i < 5; ++i) {
        items[i] = makeItem(concat("k", i));
        lru.onInsert(items[i]);
    }
    lru.onAccess(items[0]);
    lru.onAccess(items[1]);
    // Coldest now: 2, then 3, 4, 0, 1.
    EXPECT_EQ(lru.victim(), items[2]);
    lru.onRemove(items[2]);
    EXPECT_EQ(lru.victim(), items[3]);
}

} // anonymous namespace
