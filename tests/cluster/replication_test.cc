/**
 * @file
 * Tests for rack-aware replica placement in ConsistentHashRing, the
 * one placement policy behind ClusterSim's replica sets. The
 * replication protocol itself (write-all, hinted handoff, read
 * repair, hedging) is exercised end to end in degradation_test.cc.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/ring.hh"
#include "sim/logging.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;
using mercury::detail::concat;

// --- Rack-aware replica placement -----------------------------------

TEST(RackAwareReplicas, ReplicaSetSpansDistinctRacks)
{
    ConsistentHashRing ring;
    for (unsigned i = 0; i < 8; ++i)
        ring.addNode("node" + std::to_string(i), i % 4);

    for (int i = 0; i < 200; ++i) {
        const std::string key = concat("k", i);
        const auto set = ring.replicasFor(key, 2, true);
        ASSERT_EQ(set.size(), 2u);
        // The primary is still the ring owner...
        EXPECT_EQ(set[0], ring.nodeFor(key));
        // ...and the backup never shares its rack.
        EXPECT_NE(ring.rackOf(set[0]), ring.rackOf(set[1]));
    }
}

TEST(RackAwareReplicas, FallsBackToRingOrderOnceRacksExhausted)
{
    // Two racks, replica count three: the third replica must reuse a
    // rack, but the set stays distinct nodes in ring order.
    ConsistentHashRing ring;
    for (unsigned i = 0; i < 6; ++i)
        ring.addNode("node" + std::to_string(i), i % 2);

    for (int i = 0; i < 100; ++i) {
        const auto set =
            ring.replicasFor(concat("k", i), 3, true);
        ASSERT_EQ(set.size(), 3u);
        const std::set<std::string> distinct(set.begin(), set.end());
        EXPECT_EQ(distinct.size(), 3u);
        // The first two still span both racks.
        EXPECT_NE(ring.rackOf(set[0]), ring.rackOf(set[1]));
    }
}

TEST(RackAwareReplicas, WithoutRackSpreadingMatchesFailoverOrder)
{
    ConsistentHashRing ring;
    for (unsigned i = 0; i < 8; ++i)
        ring.addNode("node" + std::to_string(i), i % 4);

    for (int i = 0; i < 100; ++i) {
        const std::string key = concat("k", i);
        EXPECT_EQ(ring.replicasFor(key, 3, false),
                  ring.nodesFor(key, 3));
    }
}

} // anonymous namespace
