/**
 * @file
 * A functional distributed cache: N independent Store instances
 * behind a consistent-hash ring, memcached-cluster style. Every key
 * lives on its ring owner alone. Nodes share nothing; adding or
 * removing a node remaps only the affected arcs (and, as in real
 * memcached, remapped keys are simply lost until re-filled).
 *
 * Node crashes and replication (replica sets, hinted handoff, read
 * repair) are modelled once, in the timing simulation (ClusterSim),
 * over ConsistentHashRing::replicasFor.
 */

#ifndef MERCURY_CLUSTER_DISTRIBUTED_CACHE_HH
#define MERCURY_CLUSTER_DISTRIBUTED_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "cluster/ring.hh"
#include "kvstore/store.hh"

namespace mercury::cluster
{

/** Bookkeeping of node removals. */
struct TopologyStats
{
    /** Nodes removed from the ring so far. */
    std::size_t removedNodes = 0;
    /** Items dropped with their node; memcached loses them until
     * clients re-fill. */
    std::size_t lostItems = 0;
    /** Sampled fraction of keys remapped by the last removal --
     * consistent hashing promises ~1/numNodes. */
    double lastRemapFraction = 0.0;
};

class DistributedCache
{
  public:
    /**
     * @param nodes initial node count (named "node0".."nodeN-1")
     * @param store_params per-node store configuration
     * @param virtual_nodes ring points per node
     */
    DistributedCache(unsigned nodes,
                     const kvstore::StoreParams &store_params,
                     unsigned virtual_nodes = 40);

    kvstore::GetResult get(std::string_view key);

    kvstore::StoreStatus set(std::string_view key,
                             std::string_view value,
                             std::uint32_t flags = 0,
                             std::uint32_t ttl = 0);

    kvstore::StoreStatus remove(std::string_view key);

    /** Grow the cluster by one node. @return its name. */
    std::string addNode();

    /** Shrink the cluster; the node's data is dropped. Updates
     * topologyStats() with the item loss and the sampled remap
     * fraction measured before the ring shrank. */
    bool removeNode(const std::string &name);

    const TopologyStats &topologyStats() const { return topology_; }

    std::size_t numNodes() const { return ring_.numNodes(); }

    const ConsistentHashRing &ring() const { return ring_; }

    /** Per-node item counts, in node order. */
    std::vector<std::pair<std::string, std::size_t>>
    itemCounts() const;

    /** The store behind a node (for stats/tests). */
    kvstore::Store &storeOf(const std::string &name);

  private:
    struct Node
    {
        std::string name;
        std::unique_ptr<kvstore::Store> store;
    };

    Node *find(const std::string &name);

    /** The key's ring owner. */
    Node &ownerOf(std::string_view key);

    kvstore::StoreParams storeParams_;
    ConsistentHashRing ring_;
    std::vector<Node> nodes_;
    unsigned nextNodeId_ = 0;
    TopologyStats topology_;
};

} // namespace mercury::cluster

#endif // MERCURY_CLUSTER_DISTRIBUTED_CACHE_HH
