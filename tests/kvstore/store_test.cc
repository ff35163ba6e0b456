/**
 * @file
 * Unit and property tests for the Store (memcached semantics).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/store.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::kvstore;
using mercury::detail::concat;

StoreParams
smallStore(EvictionPolicyKind eviction = EvictionPolicyKind::StrictLru,
           LockingMode locking = LockingMode::Global)
{
    StoreParams p;
    p.memLimit = 8 * miB;
    p.hashPower = 8;
    p.eviction = eviction;
    p.locking = locking;
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
    EXPECT_EQ(store.set("k", "hello world", 42, 0),
              StoreStatus::Stored);
    GetResult r = store.get("k");
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.value, "hello world");
    EXPECT_EQ(r.flags, 42u);
    EXPECT_GT(r.cas, 0u);
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

TEST(Store, AddOnlyWhenAbsent)
{
    Store store(smallStore());
    EXPECT_EQ(store.add("k", "v1"), StoreStatus::Stored);
    EXPECT_EQ(store.add("k", "v2"), StoreStatus::NotStored);
    EXPECT_EQ(store.get("k").value, "v1");
}

TEST(Store, ReplaceOnlyWhenPresent)
{
    Store store(smallStore());
    EXPECT_EQ(store.replace("k", "v"), StoreStatus::NotStored);
    store.set("k", "v1");
    EXPECT_EQ(store.replace("k", "v2"), StoreStatus::Stored);
    EXPECT_EQ(store.get("k").value, "v2");
}

TEST(Store, CasSucceedsOnlyWithCurrentToken)
{
    Store store(smallStore());
    store.set("k", "v1");
    const std::uint64_t token = store.get("k").cas;

    EXPECT_EQ(store.cas("k", "v2", token), StoreStatus::Stored);
    // Stale token now.
    EXPECT_EQ(store.cas("k", "v3", token), StoreStatus::Exists);
    EXPECT_EQ(store.get("k").value, "v2");
    EXPECT_EQ(store.cas("ghost", "v", token), StoreStatus::NotFound);
    EXPECT_EQ(store.counters().casMismatches.load(), 1u);
}

TEST(Store, DeleteRemovesKey)
{
    Store store(smallStore());
    store.set("k", "v");
    EXPECT_EQ(store.remove("k"), StoreStatus::Stored);
    EXPECT_FALSE(store.get("k").hit);
    EXPECT_EQ(store.remove("k"), StoreStatus::NotFound);
}

TEST(Store, IncrDecrSemantics)
{
    Store store(smallStore());
    store.set("n", "10");
    std::uint64_t out = 0;
    EXPECT_EQ(store.incr("n", 5, out), StoreStatus::Stored);
    EXPECT_EQ(out, 15u);
    EXPECT_EQ(store.get("n").value, "15");

    EXPECT_EQ(store.decr("n", 20, out), StoreStatus::Stored);
    EXPECT_EQ(out, 0u) << "decr floors at zero";

    EXPECT_EQ(store.incr("ghost", 1, out), StoreStatus::NotFound);

    store.set("s", "abc");
    EXPECT_EQ(store.incr("s", 1, out), StoreStatus::BadValue);
}

TEST(Store, IncrGrowsValueLength)
{
    Store store(smallStore());
    store.set("n", "9");
    std::uint64_t out = 0;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(store.incr("n", 9999999, out), StoreStatus::Stored);
    EXPECT_EQ(store.get("n").value, std::to_string(out));
}

TEST(Store, TtlExpiresLazily)
{
    Store store(smallStore());
    store.setClock(100);
    store.set("k", "v", 0, 50);
    EXPECT_TRUE(store.get("k").hit);

    store.setClock(149);
    EXPECT_TRUE(store.get("k").hit);
    store.setClock(150);
    EXPECT_FALSE(store.get("k").hit);
}

TEST(Store, TouchExtendsTtl)
{
    Store store(smallStore());
    store.setClock(0);
    store.set("k", "v", 0, 10);
    store.setClock(5);
    EXPECT_EQ(store.touch("k", 100), StoreStatus::Stored);
    store.setClock(50);
    EXPECT_TRUE(store.get("k").hit);
    EXPECT_EQ(store.touch("ghost", 10), StoreStatus::NotFound);
}

TEST(Store, ZeroTtlNeverExpires)
{
    Store store(smallStore());
    store.set("k", "v");
    store.setClock(~0u / 2);
    EXPECT_TRUE(store.get("k").hit);
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

TEST(Store, HousekeepingReapsExpired)
{
    Store store(smallStore());
    store.setClock(0);
    for (int i = 0; i < 100; ++i)
        store.set(concat("k", i), "v", 0, 10);
    store.setClock(100);
    const std::size_t before = store.itemCount();
    store.housekeeping(1000);
    EXPECT_LT(store.itemCount(), before);
    EXPECT_TRUE(store.checkConsistency());
}

TEST(Store, CountersTrackOperations)
{
    Store store(smallStore());
    store.set("k", "v");
    store.get("k");
    store.get("ghost");
    store.remove("k");
    const StoreCounters &c = store.counters();
    EXPECT_EQ(c.sets.load(), 1u);
    EXPECT_EQ(c.gets.load(), 2u);
    EXPECT_EQ(c.getHits.load(), 1u);
    EXPECT_EQ(c.getMisses.load(), 1u);
    EXPECT_EQ(c.deletes.load(), 1u);
}

TEST(Store, StrictLruCountsReorders)
{
    Store store(smallStore(EvictionPolicyKind::StrictLru));
    store.set("k", "v");
    for (int i = 0; i < 50; ++i)
        store.get("k");
    EXPECT_EQ(store.lruReorderOps(), 50u);
}

TEST(Store, BagsAvoidsReordersOnGets)
{
    Store store(smallStore(EvictionPolicyKind::Bags,
                           LockingMode::Striped));
    store.set("k", "v");
    for (int i = 0; i < 50; ++i)
        store.get("k");
    EXPECT_EQ(store.lruReorderOps(), 0u);
}

class StorePropertyTest
    : public ::testing::TestWithParam<std::tuple<EvictionPolicyKind,
                                                 LockingMode>>
{};

TEST_P(StorePropertyTest, RandomOpsMatchReferenceModel)
{
    auto [eviction, locking] = GetParam();
    StoreParams p = smallStore(eviction, locking);
    p.memLimit = 32 * miB;  // large enough to avoid evictions
    Store store(p);

    // Reference: a plain map. With no evictions/TTL the store must
    // agree exactly.
    std::vector<std::string> reference(64);
    std::vector<bool> present(64, false);
    Rng rng(std::get<0>(GetParam()) == EvictionPolicyKind::Bags ? 7
                                                                : 13);

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
        } else if (roll < 0.85) {
            const std::string value =
                concat("v", rng.nextInt(1000000));
            EXPECT_EQ(store.set(key, value), StoreStatus::Stored);
            reference[slot] = value;
            present[slot] = true;
        } else {
            const StoreStatus status = store.remove(key);
            EXPECT_EQ(status == StoreStatus::Stored, present[slot]);
            present[slot] = false;
        }
    }
    EXPECT_TRUE(store.checkConsistency());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StorePropertyTest,
    ::testing::Values(
        std::make_tuple(EvictionPolicyKind::StrictLru,
                        LockingMode::Global),
        std::make_tuple(EvictionPolicyKind::StrictLru,
                        LockingMode::Striped),
        std::make_tuple(EvictionPolicyKind::Bags, LockingMode::Global),
        std::make_tuple(EvictionPolicyKind::Bags,
                        LockingMode::Striped)));

TEST(StoreConcurrency, ParallelGetsAndSetsStayConsistent)
{
    StoreParams p = smallStore(EvictionPolicyKind::Bags,
                               LockingMode::Striped);
    p.memLimit = 32 * miB;
    Store store(p);

    for (int i = 0; i < 256; ++i)
        store.set(concat("k", i), "seed");

    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&store, &failed, t] {
            Rng rng(static_cast<std::uint64_t>(t) + 1);
            for (int i = 0; i < 5000; ++i) {
                const std::string key =
                    concat("k", rng.nextInt(256));
                if (rng.nextBool(0.7)) {
                    GetResult r = store.get(key);
                    if (r.hit && r.value.empty())
                        failed = true;
                } else {
                    store.set(key, concat("t", t));
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_FALSE(failed.load());
    EXPECT_TRUE(store.checkConsistency());
    EXPECT_EQ(store.itemCount(), 256u);
}

TEST(StoreConcurrency, GetsRaceTableExpansionAndMigration)
{
    // 16 buckets, one per stripe, pass the 1.5 load factor at 24
    // items: the writer below doubles the table eight times, and each
    // migration moves chains of every stripe while the readers walk
    // theirs holding only their own stripe.
    StoreParams p = smallStore(EvictionPolicyKind::Bags,
                               LockingMode::Striped);
    p.hashPower = 4;
    p.memLimit = 32 * miB;
    Store store(p);

    constexpr int seeded = 16;
    constexpr int total = 4096;
    auto value_of = [](std::uint64_t i) { return concat("v", i); };
    for (int i = 0; i < seeded; ++i)
        store.set(concat("k", i), value_of(i));

    std::atomic<int> inserted{seeded};
    std::atomic<bool> failed{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(static_cast<std::uint64_t>(t) + 7);
            while (inserted.load() < total) {
                const std::uint64_t i = rng.nextInt(
                    static_cast<std::uint64_t>(inserted.load()));
                const GetResult r = store.get(concat("k", i));
                if (!r.hit || r.value != value_of(i))
                    failed = true;
            }
        });
    }
    for (int i = seeded; i < total; ++i) {
        store.set(concat("k", i), value_of(i));
        inserted.store(i + 1);
    }
    for (auto &reader : readers)
        reader.join();

    EXPECT_FALSE(failed.load()) << "a GET missed an inserted key";
    EXPECT_EQ(store.table().buckets(), 4096u);
    EXPECT_EQ(store.itemCount(), static_cast<std::size_t>(total));
    EXPECT_TRUE(store.checkConsistency());
}

TEST(StoreConcurrency, GlobalLockModeIsAlsoSafe)
{
    StoreParams p = smallStore(EvictionPolicyKind::StrictLru,
                               LockingMode::Global);
    p.memLimit = 32 * miB;
    Store store(p);
    for (int i = 0; i < 64; ++i)
        store.set(concat("k", i), "seed");

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&store, t] {
            Rng rng(static_cast<std::uint64_t>(t) + 99);
            for (int i = 0; i < 3000; ++i) {
                const std::string key =
                    concat("k", rng.nextInt(64));
                if (rng.nextBool(0.5))
                    store.get(key);
                else
                    store.set(key, "x");
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_TRUE(store.checkConsistency());
}

TEST(Store, AppendAndPrepend)
{
    Store store(smallStore());
    EXPECT_EQ(store.append("k", "x"), StoreStatus::NotStored);
    store.set("k", "mid", 9, 0);
    EXPECT_EQ(store.append("k", "-end"), StoreStatus::Stored);
    EXPECT_EQ(store.prepend("k", "start-"), StoreStatus::Stored);
    const GetResult r = store.get("k");
    EXPECT_EQ(r.value, "start-mid-end");
    EXPECT_EQ(r.flags, 9u) << "concat preserves client flags";
}

TEST(Store, AppendPreservesTtl)
{
    Store store(smallStore());
    store.setClock(0);
    store.set("k", "v", 0, 100);
    store.setClock(50);
    EXPECT_EQ(store.append("k", "!"), StoreStatus::Stored);
    store.setClock(99);
    EXPECT_TRUE(store.get("k").hit);
    store.setClock(101);
    EXPECT_FALSE(store.get("k").hit);
}

TEST(Store, AppendToExpiredIsNotStored)
{
    Store store(smallStore());
    store.setClock(0);
    store.set("k", "v", 0, 10);
    store.setClock(20);
    EXPECT_EQ(store.append("k", "!"), StoreStatus::NotStored);
}

} // anonymous namespace
