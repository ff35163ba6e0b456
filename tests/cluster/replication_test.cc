/**
 * @file
 * Tests for rack-aware replica placement in ConsistentHashRing, the
 * one placement policy behind ClusterSim's replica sets. The
 * replication protocol itself (write-all, hinted handoff, read
 * repair, hedging) is exercised end to end in degradation_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/ring.hh"
#include "kvstore/hash.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;
using mercury::detail::concat;

/**
 * Reference ring that answers in node names, walking the circle the
 * way the ring did before it answered in indices: a linear name
 * search per step, and rack spreading over the full distinct-owner
 * order. Built from the same (name, rack) list and virtual-node
 * count, it places the same points as ConsistentHashRing.
 */
class NameRing
{
  public:
    NameRing(const std::vector<std::pair<std::string, unsigned>> &nodes,
             unsigned virtual_nodes)
        : nodes_(nodes)
    {
        for (const auto &[name, rack] : nodes_) {
            for (unsigned v = 0; v < virtual_nodes; ++v)
                ring_[kvstore::hashKey(name, v + 1)] = name;
        }
    }

    std::vector<std::string> nodesFor(const std::string &key,
                                      std::size_t count) const
    {
        std::vector<std::string> order;
        auto it = ring_.lower_bound(kvstore::hashKey(key));
        for (std::size_t steps = 0;
             steps < ring_.size() && order.size() < count; ++steps) {
            if (it == ring_.end())
                it = ring_.begin();
            if (std::find(order.begin(), order.end(), it->second) ==
                order.end()) {
                order.push_back(it->second);
            }
            ++it;
        }
        return order;
    }

    /** Greedy rack spreading over the full ring order; a count of 0
     * is an empty order (the index walk's contract). */
    std::vector<std::string> replicasFor(const std::string &key,
                                         std::size_t count,
                                         bool distinct_racks) const
    {
        if (!distinct_racks || count == 0)
            return nodesFor(key, count);
        const std::vector<std::string> order =
            nodesFor(key, nodes_.size());
        if (order.size() <= count)
            return order;

        std::vector<std::string> picked{order[0]};
        std::vector<bool> used(order.size(), false);
        used[0] = true;
        std::vector<unsigned> racks_seen{rackOf(order[0])};
        while (picked.size() < count) {
            std::size_t chosen = order.size();
            for (std::size_t i = 1; i < order.size(); ++i) {
                if (!used[i] &&
                    std::find(racks_seen.begin(), racks_seen.end(),
                              rackOf(order[i])) == racks_seen.end()) {
                    chosen = i;
                    break;
                }
            }
            for (std::size_t i = 1;
                 chosen == order.size() && i < order.size(); ++i) {
                if (!used[i])
                    chosen = i;
            }
            if (chosen == order.size())
                break;
            used[chosen] = true;
            picked.push_back(order[chosen]);
            racks_seen.push_back(rackOf(order[chosen]));
        }
        return picked;
    }

  private:
    unsigned rackOf(const std::string &name) const
    {
        for (const auto &[node, rack] : nodes_) {
            if (node == name)
                return rack;
        }
        return 0;
    }

    std::vector<std::pair<std::string, unsigned>> nodes_;
    std::map<std::uint64_t, std::string> ring_;
};

/** "node<i>" striped over @p racks racks. */
std::vector<std::pair<std::string, unsigned>>
stripedNodes(unsigned nodes, unsigned racks)
{
    std::vector<std::pair<std::string, unsigned>> list;
    for (unsigned i = 0; i < nodes; ++i)
        list.emplace_back(concat("node", i), i % racks);
    return list;
}

ConsistentHashRing
ringOf(const std::vector<std::pair<std::string, unsigned>> &nodes,
       unsigned virtual_nodes)
{
    ConsistentHashRing ring(virtual_nodes);
    for (const auto &[name, rack] : nodes)
        ring.addNode(name, rack);
    return ring;
}

std::vector<std::string>
namesOf(const ConsistentHashRing &ring,
        const std::vector<std::size_t> &indices)
{
    std::vector<std::string> names;
    for (const std::size_t index : indices)
        names.push_back(ring.nodeName(index));
    return names;
}

// --- Index walk == name walk ------------------------------------------

void
expectMatchesNameWalk(unsigned nodes, unsigned racks,
                      unsigned virtual_nodes)
{
    const auto list = stripedNodes(nodes, racks);
    const ConsistentHashRing ring = ringOf(list, virtual_nodes);
    const NameRing reference(list, virtual_nodes);

    for (int i = 0; i < 10000; ++i) {
        const std::string key = concat("k", i);
        for (const std::size_t count :
             {std::size_t{1}, std::size_t{2}, std::size_t{3},
              std::size_t{nodes}}) {
            ASSERT_EQ(namesOf(ring, ring.nodesFor(key, count)),
                      reference.nodesFor(key, count))
                << key << " count " << count;
            for (const bool spread : {false, true}) {
                ASSERT_EQ(
                    namesOf(ring, ring.replicasFor(key, count, spread)),
                    reference.replicasFor(key, count, spread))
                    << key << " count " << count << " spread "
                    << spread;
            }
        }
    }
}

TEST(RingIndexWalk, MatchesNameWalkSixteenNodesFourRacks)
{
    expectMatchesNameWalk(16, 4, 64);
}

TEST(RingIndexWalk, MatchesNameWalkSixNodesTwoRacks)
{
    expectMatchesNameWalk(6, 2, 40);
}

TEST(RingIndexWalk, ZeroCountIsAnEmptyOrder)
{
    const ConsistentHashRing ring = ringOf(stripedNodes(8, 4), 40);
    for (int i = 0; i < 100; ++i) {
        const std::string key = concat("k", i);
        EXPECT_TRUE(ring.nodesFor(key, 0).empty()) << key;
        EXPECT_TRUE(ring.replicasFor(key, 0, false).empty()) << key;
        EXPECT_TRUE(ring.replicasFor(key, 0, true).empty()) << key;
    }
}

// --- Rack-aware replica placement -----------------------------------

TEST(RackAwareReplicas, ReplicaSetSpansDistinctRacks)
{
    const ConsistentHashRing ring = ringOf(stripedNodes(8, 4), 40);

    for (int i = 0; i < 200; ++i) {
        const std::string key = concat("k", i);
        const auto set = ring.replicasFor(key, 2, true);
        ASSERT_EQ(set.size(), 2u);
        // The primary is still the ring owner...
        EXPECT_EQ(ring.nodeName(set[0]), ring.nodeFor(key));
        // ...and the backup never shares its rack (node i sits in
        // rack i % 4).
        EXPECT_NE(set[0] % 4, set[1] % 4);
    }
}

TEST(RackAwareReplicas, FallsBackToRingOrderOnceRacksExhausted)
{
    // Two racks, replica count three: the third replica must reuse a
    // rack, but the set stays distinct nodes in ring order.
    const ConsistentHashRing ring = ringOf(stripedNodes(6, 2), 40);

    for (int i = 0; i < 100; ++i) {
        const auto set =
            ring.replicasFor(concat("k", i), 3, true);
        ASSERT_EQ(set.size(), 3u);
        const std::set<std::size_t> distinct(set.begin(), set.end());
        EXPECT_EQ(distinct.size(), 3u);
        // The first two still span both racks.
        EXPECT_NE(set[0] % 2, set[1] % 2);
    }
}

TEST(RackAwareReplicas, WithoutRackSpreadingMatchesFailoverOrder)
{
    const ConsistentHashRing ring = ringOf(stripedNodes(8, 4), 40);

    for (int i = 0; i < 100; ++i) {
        const std::string key = concat("k", i);
        EXPECT_EQ(ring.replicasFor(key, 3, false),
                  ring.nodesFor(key, 3));
    }
}

} // anonymous namespace
