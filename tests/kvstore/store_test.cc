/**
 * @file
 * Unit and property tests for the Store: get, set and flush_all with
 * memcached semantics.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kvstore/store.hh"
#include "sim/contract.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::kvstore;
using mercury::detail::concat;

StoreParams
smallStore()
{
    StoreParams p;
    p.memLimit = 8 * miB;
    p.hashPower = 8;
    return p;
}

TEST(Store, GetMissOnEmptyStore)
{
    Store store(smallStore());
    EXPECT_FALSE(store.get("nope").hit);
    EXPECT_EQ(store.counters().getMisses.load(), 1u);
}

TEST(Store, SetThenGetRoundTrips)
{
    Store store(smallStore());
    EXPECT_EQ(store.set("k", "hello world", 42),
              StoreStatus::Stored);
    GetResult r = store.get("k");
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.value, "hello world");
    EXPECT_EQ(r.flags, 42u);
}

TEST(Store, OverwriteReplacesValue)
{
    Store store(smallStore());
    store.set("k", "one");
    store.set("k", "two");
    EXPECT_EQ(store.get("k").value, "two");
    EXPECT_EQ(store.itemCount(), 1u);
}

TEST(Store, BinaryValuesSurvive)
{
    Store store(smallStore());
    std::string value;
    for (int i = 0; i < 256; ++i)
        value.push_back(static_cast<char>(i));
    store.set("bin", value);
    EXPECT_EQ(store.get("bin").value, value);
}

TEST(Store, LargeValueRoundTrips)
{
    StoreParams p = smallStore();
    p.memLimit = 16 * miB;
    Store store(p);
    const std::string big(512 * kiB, 'z');
    EXPECT_EQ(store.set("big", big), StoreStatus::Stored);
    EXPECT_EQ(store.get("big").value.size(), big.size());
}

TEST(Store, SetTracedRejectsAnExpiry)
{
    // The store keeps no clock, so an item with a TTL could never
    // expire: setTraced refuses one instead of storing it forever.
    contract::ScopedContractThrow guard;
    Store store(smallStore());
    ProbeTrace trace;
    EXPECT_THROW(store.setTraced("k", "v", 0, 1, trace),
                 contract::ContractViolation);
    EXPECT_FALSE(store.get("k").hit);
}

TEST(Store, FlushAllInvalidatesEverything)
{
    Store store(smallStore());
    store.set("a", "1");
    store.set("b", "2");
    store.flushAll();
    EXPECT_FALSE(store.get("a").hit);
    EXPECT_FALSE(store.get("b").hit);
    // New writes live on.
    store.set("c", "3");
    EXPECT_TRUE(store.get("c").hit);
}

TEST(Store, SetAfterFlushResurrectsKey)
{
    Store store(smallStore());
    store.set("a", "old");
    store.flushAll();
    store.set("a", "new");
    EXPECT_EQ(store.get("a").value, "new");
}

TEST(Store, EvictionKicksInWhenFull)
{
    StoreParams p = smallStore();
    p.memLimit = 2 * miB;
    Store store(p);

    const std::string value(1000, 'v');
    for (int i = 0; i < 5000; ++i)
        store.set(concat("k", i), value);

    EXPECT_GT(store.counters().evictions.load(), 0u);
    EXPECT_LE(store.usedBytes(), store.memLimit());
    // The most recent keys survive.
    EXPECT_TRUE(store.get("k4999").hit);
    EXPECT_FALSE(store.get("k0").hit);
    EXPECT_TRUE(store.checkConsistency());
}

TEST(Store, LruPrefersEvictingColdKeys)
{
    StoreParams p = smallStore();
    p.memLimit = 2 * miB;
    Store store(p);

    const std::string value(1000, 'v');
    store.set("hot", value);
    for (int i = 0; i < 5000; ++i) {
        store.set(concat("k", i), value);
        store.get("hot");  // keep it warm
    }
    EXPECT_TRUE(store.get("hot").hit);
}

TEST(Store, OversizeObjectRejected)
{
    Store store(smallStore());
    const std::string huge(2 * miB, 'x');
    EXPECT_EQ(store.set("k", huge), StoreStatus::OutOfMemory);
}

TEST(Store, TracedGetReportsProbeWalk)
{
    Store store(smallStore());
    store.set("k", "hello");
    ProbeTrace trace;
    GetResult r = store.getTraced("k", trace);
    ASSERT_TRUE(r.hit);
    EXPECT_TRUE(trace.hit);
    EXPECT_NE(trace.bucketAddr, nullptr);
    EXPECT_GE(trace.chainItems.size(), 1u);
    EXPECT_EQ(trace.itemAddr, trace.chainItems.back());
    EXPECT_EQ(trace.valueLen, 5u);
}

TEST(Store, TracedSetReportsNewItemAndEvictions)
{
    StoreParams p = smallStore();
    p.memLimit = 1 * miB;
    Store store(p);
    const std::string value(100 * kiB, 'v');

    ProbeTrace trace;
    for (int i = 0; i < 30; ++i) {
        trace = ProbeTrace{};
        store.setTraced(concat("k", i), value, 0, 0, trace);
    }
    EXPECT_NE(trace.itemAddr, nullptr);
    EXPECT_GT(store.counters().evictions.load(), 0u);
}

TEST(Store, CountersTrackOperations)
{
    Store store(smallStore());
    store.set("k", "v");
    store.get("k");
    store.get("ghost");
    const StoreCounters &c = store.counters();
    EXPECT_EQ(c.sets.load(), 1u);
    EXPECT_EQ(c.gets.load(), 2u);
    EXPECT_EQ(c.getHits.load(), 1u);
    EXPECT_EQ(c.getMisses.load(), 1u);
}

TEST(Store, RandomOpsMatchReferenceModel)
{
    StoreParams p = smallStore();
    p.memLimit = 32 * miB;  // large enough to avoid evictions
    Store store(p);

    // Reference: a plain map. With no evictions/TTL the store must
    // agree exactly; a flush empties both.
    std::vector<std::string> reference(64);
    std::vector<bool> present(64, false);
    Rng rng(13);

    for (int i = 0; i < 20000; ++i) {
        const auto slot = static_cast<std::size_t>(rng.nextInt(64));
        const std::string key = "key:" + std::to_string(slot);
        const double roll = rng.nextDouble();
        if (roll < 0.5) {
            GetResult r = store.get(key);
            EXPECT_EQ(r.hit, present[slot]);
            if (r.hit) {
                EXPECT_EQ(r.value, reference[slot]);
            }
        } else if (roll < 0.999) {
            const std::string value =
                concat("v", rng.nextInt(1000000));
            EXPECT_EQ(store.set(key, value), StoreStatus::Stored);
            reference[slot] = value;
            present[slot] = true;
        } else {
            store.flushAll();
            present.assign(present.size(), false);
        }
    }
    EXPECT_TRUE(store.checkConsistency());
}

TEST(Store, GetsStayCorrectThroughTableDoublings)
{
    // 16 buckets reach the 1.5 load factor at 24 items, so the
    // inserts below double the table eight times, and the GET after
    // each insert walks the chains of a table that may just have
    // doubled.
    StoreParams p = smallStore();
    p.hashPower = 4;
    Store store(p);

    constexpr int total = 4096;
    auto value_of = [](std::uint64_t i) { return concat("v", i); };
    Rng rng(7);
    ProbeTrace trace;
    for (int i = 0; i < total; ++i) {
        store.set(concat("k", i), value_of(i));
        const std::uint64_t probe =
            rng.nextInt(static_cast<std::uint64_t>(i) + 1);
        trace.clear();
        const GetResult r = store.getTraced(concat("k", probe), trace);
        ASSERT_TRUE(r.hit) << "GET of key " << probe << " after "
                           << i + 1 << " inserts";
        ASSERT_EQ(r.value, value_of(probe));
        ASSERT_FALSE(trace.chainItems.empty());
        ASSERT_EQ(trace.chainItems.back(), trace.itemAddr)
            << "the chain walk must end at the returned item";
    }

    EXPECT_EQ(store.table().buckets(), 4096u);
    EXPECT_EQ(store.itemCount(), static_cast<std::size_t>(total));
    EXPECT_TRUE(store.checkConsistency());
}

} // anonymous namespace
