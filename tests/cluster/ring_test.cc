/**
 * @file
 * Tests for consistent hashing.
 */

#include <gtest/gtest.h>

#include "cluster/ring.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;

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

    // The largest share of uniform-random keys any node receives.
    const std::size_t samples = 40000;
    const double few_max = few.sampleLoad(samples).max / samples;
    const double many_max = many.sampleLoad(samples).max / samples;
    EXPECT_LT(many_max, few_max);
    EXPECT_LT(many_max, 0.05);
}

} // anonymous namespace
