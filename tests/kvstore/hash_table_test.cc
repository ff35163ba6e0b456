/**
 * @file
 * Unit tests for the hash function and chained hash table.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/hash.hh"
#include "kvstore/hash_table.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury::kvstore;
using mercury::detail::concat;

TEST(HashKey, DeterministicAndSeedSensitive)
{
    EXPECT_EQ(hashKey("foo"), hashKey("foo"));
    EXPECT_NE(hashKey("foo"), hashKey("bar"));
    EXPECT_NE(hashKey("foo", 1), hashKey("foo", 2));
}

TEST(HashKey, ShortAndLongKeys)
{
    EXPECT_NE(hashKey(""), hashKey("a"));
    const std::string long_key(200, 'x');
    const std::string long_key2 = long_key + "y";
    EXPECT_NE(hashKey(long_key), hashKey(long_key2));
}

TEST(HashKey, BucketsDisperse)
{
    // 10k sequential keys into 1024 buckets: no bucket should be
    // grossly overloaded.
    std::map<std::uint64_t, int> buckets;
    for (int i = 0; i < 10000; ++i)
        ++buckets[hashKey("key:" + std::to_string(i)) % 1024];
    int max_load = 0;
    for (const auto &[bucket, load] : buckets)
        max_load = std::max(max_load, load);
    EXPECT_LT(max_load, 35) << "expected ~10 per bucket";
}

/** Helper owning item storage for table tests. */
class TableFixture : public ::testing::Test
{
  protected:
    Item *
    makeItem(const std::string &key, const std::string &value = "v")
    {
        const std::size_t size = Item::totalSize(key.size(),
                                                 value.size());
        storage_.push_back(std::make_unique<char[]>(size));
        Item *item = new (storage_.back().get()) Item();
        item->setKey(key);
        item->setValue(value);
        return item;
    }

    HashTable table_{4};  // 16 buckets; doubles at 24 items
    std::vector<std::unique_ptr<char[]>> storage_;
};

TEST_F(TableFixture, FindOnEmptyTableMisses)
{
    auto probe = table_.find("missing", hashKey("missing"));
    EXPECT_EQ(probe.item, nullptr);
    EXPECT_EQ(probe.chainLength, 0u);
    EXPECT_NE(probe.bucketAddr, nullptr);
}

TEST_F(TableFixture, InsertThenFind)
{
    Item *item = makeItem("alpha");
    table_.insert(item, hashKey("alpha"));
    auto probe = table_.find("alpha", hashKey("alpha"));
    EXPECT_EQ(probe.item, item);
    EXPECT_GE(probe.chainLength, 1u);
    EXPECT_EQ(table_.size(), 1u);
}

TEST_F(TableFixture, RemoveUnlinksItem)
{
    Item *item = makeItem("alpha");
    table_.insert(item, hashKey("alpha"));
    EXPECT_EQ(table_.remove("alpha", hashKey("alpha")), item);
    EXPECT_EQ(table_.size(), 0u);
    EXPECT_EQ(table_.find("alpha", hashKey("alpha")).item, nullptr);
}

TEST_F(TableFixture, RemoveMissingReturnsNull)
{
    EXPECT_EQ(table_.remove("ghost", hashKey("ghost")), nullptr);
}

TEST_F(TableFixture, ManyKeysAllFindable)
{
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const std::string key = concat("k", i);
        table_.insert(makeItem(key), hashKey(key));
    }
    EXPECT_EQ(table_.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const std::string key = concat("k", i);
        EXPECT_NE(table_.find(key, hashKey(key)).item, nullptr)
            << key;
    }
}

TEST_F(TableFixture, DoublesOncePastLoadFactorInOneRehash)
{
    // 16 buckets hold 23 items; the 24th reaches load factor 1.5 and
    // the table doubles to 32 in that insert, and stays at 32 until
    // the 48th.
    ASSERT_EQ(table_.buckets(), 16u);
    int i = 0;
    for (; i < 23; ++i) {
        const std::string key = concat("k", i);
        table_.insert(makeItem(key), hashKey(key));
    }
    EXPECT_EQ(table_.buckets(), 16u);
    for (; i < 47; ++i) {
        const std::string key = concat("k", i);
        table_.insert(makeItem(key), hashKey(key));
        EXPECT_EQ(table_.buckets(), 32u) << "after " << i + 1;
    }

    table_.validate();
    for (int j = 0; j < i; ++j) {
        const std::string key = concat("k", j);
        const ProbeResult probe = table_.find(key, hashKey(key));
        ASSERT_NE(probe.item, nullptr) << key;
        EXPECT_EQ(probe.item->key(), key);
        EXPECT_LT(probe.bucketIndex, table_.buckets()) << key;
        EXPECT_EQ(probe.bucketIndex, hashKey(key) % 32) << key;
    }
}

TEST_F(TableFixture, RemoveWorksAfterDoubling)
{
    int i = 0;
    for (; table_.buckets() == 16u; ++i) {
        const std::string key = concat("k", i);
        table_.insert(makeItem(key), hashKey(key));
    }

    // Remove every other key from the doubled table.
    std::size_t removed = 0;
    for (int j = 0; j < i; j += 2) {
        const std::string key = concat("k", j);
        if (table_.remove(key, hashKey(key)))
            ++removed;
    }
    EXPECT_EQ(removed, static_cast<std::size_t>((i + 1) / 2));
    EXPECT_EQ(table_.size(), static_cast<std::size_t>(i / 2));
    for (int j = 0; j < i; ++j) {
        const std::string key = concat("k", j);
        EXPECT_EQ(table_.find(key, hashKey(key)).item != nullptr,
                  j % 2 == 1)
            << key;
    }
    table_.validate();
}

TEST_F(TableFixture, ChainLengthCountsCollisions)
{
    // All items into one logical chain by inserting duplicates of
    // distinct keys and measuring the probe of the deepest one.
    for (int i = 0; i < 100; ++i) {
        const std::string key = concat("c", i);
        table_.insert(makeItem(key), hashKey(key));
    }
    unsigned max_chain = 0;
    for (int i = 0; i < 100; ++i) {
        const std::string key = concat("c", i);
        max_chain = std::max(max_chain,
                             table_.find(key, hashKey(key)).chainLength);
    }
    EXPECT_GE(max_chain, 2u) << "100 keys in <=32 buckets must collide";
}

TEST_F(TableFixture, ForEachVisitsEveryItem)
{
    for (int i = 0; i < 50; ++i) {
        const std::string key = concat("k", i);
        table_.insert(makeItem(key), hashKey(key));
    }
    std::size_t visited = 0;
    table_.forEach([&](Item *) { ++visited; });
    EXPECT_EQ(visited, 50u);
}

} // anonymous namespace
