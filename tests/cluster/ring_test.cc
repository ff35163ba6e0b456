/**
 * @file
 * Tests for consistent hashing and the distributed cache.
 */

#include <gtest/gtest.h>

#include "cluster/distributed_cache.hh"
#include "cluster/ring.hh"
#include "sim/logging.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;
using mercury::detail::concat;

TEST(ConsistentHashRing, SingleNodeOwnsEverything)
{
    ConsistentHashRing ring;
    ring.addNode("only");
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(ring.nodeFor("key" + std::to_string(i)), "only");
}

TEST(ConsistentHashRing, DuplicateNodeRejected)
{
    ConsistentHashRing ring;
    EXPECT_TRUE(ring.addNode("a"));
    EXPECT_FALSE(ring.addNode("a"));
    EXPECT_EQ(ring.numNodes(), 1u);
}

TEST(ConsistentHashRing, MappingIsStable)
{
    ConsistentHashRing ring;
    for (int i = 0; i < 8; ++i)
        ring.addNode("node" + std::to_string(i));
    for (int i = 0; i < 100; ++i) {
        const std::string key = "key" + std::to_string(i);
        EXPECT_EQ(ring.nodeFor(key), ring.nodeFor(key));
    }
}

TEST(ConsistentHashRing, LoadSpreadsAcrossNodes)
{
    ConsistentHashRing ring(40);
    for (int i = 0; i < 8; ++i)
        ring.addNode("node" + std::to_string(i));
    const LoadStats stats = ring.sampleLoad(40000);
    EXPECT_LT(stats.imbalance, 1.5);
    EXPECT_GT(stats.min, 0.0);
}

TEST(ConsistentHashRing, MoreVirtualNodesFlattenLoad)
{
    // Sec. 3.8: virtual nodes give a more uniform utilization.
    ConsistentHashRing coarse(2), fine(128);
    for (int i = 0; i < 8; ++i) {
        coarse.addNode("node" + std::to_string(i));
        fine.addNode("node" + std::to_string(i));
    }
    const LoadStats coarse_stats = coarse.sampleLoad(40000);
    const LoadStats fine_stats = fine.sampleLoad(40000);
    EXPECT_LT(fine_stats.cv, coarse_stats.cv);
    EXPECT_LT(fine_stats.imbalance, coarse_stats.imbalance);
}

TEST(ConsistentHashRing, MorePhysicalNodesShrinkArcs)
{
    // The Mercury/Iridium claim: many small nodes reduce contention
    // because each owns a smaller arc.
    ConsistentHashRing few(40), many(40);
    for (int i = 0; i < 4; ++i)
        few.addNode("node" + std::to_string(i));
    for (int i = 0; i < 96; ++i)
        many.addNode("node" + std::to_string(i));

    double few_max = 0.0, many_max = 0.0;
    for (const auto &[node, share] : few.arcShare())
        few_max = std::max(few_max, share);
    for (const auto &[node, share] : many.arcShare())
        many_max = std::max(many_max, share);
    EXPECT_LT(many_max, few_max);
    EXPECT_LT(many_max, 0.05);
}

TEST(ConsistentHashRing, ArcSharesSumToOne)
{
    ConsistentHashRing ring;
    for (int i = 0; i < 10; ++i)
        ring.addNode("node" + std::to_string(i));
    double total = 0.0;
    for (const auto &[node, share] : ring.arcShare())
        total += share;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ConsistentHashRing, RemovalRemapsOnlyTheLostArc)
{
    ConsistentHashRing ring(64);
    for (int i = 0; i < 16; ++i)
        ring.addNode("node" + std::to_string(i));
    const double moved =
        ring.remapFractionOnRemoval("node3", 20000);
    // ~1/16 of keys should move, never more than ~2x that.
    EXPECT_GT(moved, 0.02);
    EXPECT_LT(moved, 0.13);
}

TEST(ConsistentHashRing, RemoveNodeRedistributes)
{
    ConsistentHashRing ring;
    ring.addNode("a");
    ring.addNode("b");
    ring.removeNode("a");
    EXPECT_EQ(ring.numNodes(), 1u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(ring.nodeFor(concat("k", i)), "b");
}

kvstore::StoreParams
nodeParams()
{
    kvstore::StoreParams p;
    p.memLimit = 4 * mercury::miB;
    return p;
}

TEST(DistributedCache, RoutesAndRoundTrips)
{
    DistributedCache cache(8, nodeParams());
    for (int i = 0; i < 500; ++i) {
        const std::string key = concat("k", i);
        EXPECT_EQ(cache.set(key, "value" + std::to_string(i)),
                  kvstore::StoreStatus::Stored);
    }
    for (int i = 0; i < 500; ++i) {
        const std::string key = concat("k", i);
        const auto r = cache.get(key);
        ASSERT_TRUE(r.hit) << key;
        EXPECT_EQ(r.value, "value" + std::to_string(i));
    }
}

TEST(DistributedCache, KeysSpreadOverNodes)
{
    DistributedCache cache(8, nodeParams());
    for (int i = 0; i < 2000; ++i)
        cache.set(concat("k", i), "v");

    std::size_t total = 0;
    for (const auto &[name, count] : cache.itemCounts()) {
        EXPECT_GT(count, 50u) << name;
        total += count;
    }
    EXPECT_EQ(total, 2000u);
}

TEST(DistributedCache, RemoveWorksAcrossNodes)
{
    DistributedCache cache(4, nodeParams());
    cache.set("gone", "x");
    EXPECT_EQ(cache.remove("gone"), kvstore::StoreStatus::Stored);
    EXPECT_FALSE(cache.get("gone").hit);
}

TEST(DistributedCache, GrowingClusterKeepsMostKeys)
{
    DistributedCache cache(8, nodeParams());
    for (int i = 0; i < 2000; ++i)
        cache.set(concat("k", i), "v");

    cache.addNode();
    int hits = 0;
    for (int i = 0; i < 2000; ++i) {
        if (cache.get(concat("k", i)).hit)
            ++hits;
    }
    // Only ~1/9 of the keyspace remaps (and misses until refilled).
    EXPECT_GT(hits, 1500);
    EXPECT_LT(hits, 2000);
}

TEST(DistributedCache, RemovingNodeLosesOnlyItsArc)
{
    DistributedCache cache(8, nodeParams());
    for (int i = 0; i < 2000; ++i)
        cache.set(concat("k", i), "v");

    ASSERT_TRUE(cache.removeNode("node0"));
    EXPECT_EQ(cache.numNodes(), 7u);
    int hits = 0;
    for (int i = 0; i < 2000; ++i) {
        if (cache.get(concat("k", i)).hit)
            ++hits;
    }
    EXPECT_GT(hits, 1400);
    EXPECT_LT(hits, 1950);
}

} // anonymous namespace
