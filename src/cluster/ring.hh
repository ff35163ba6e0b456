/**
 * @file
 * Consistent-hash ring with virtual nodes (Sec. 3.8).
 *
 * Keys map onto a point on a circle; each node owns the arcs ending
 * at its (virtual) points. More physical nodes -- the Mercury and
 * Iridium argument -- or more virtual nodes per physical node shrink
 * the arcs and flatten the load distribution, reducing resource
 * contention in the DHT.
 *
 * The ring is append-only. A node that goes down stays on it: the
 * cluster client (ClusterSim) fails its keys over to their ring
 * successors instead of remapping them.
 */

#ifndef MERCURY_CLUSTER_RING_HH
#define MERCURY_CLUSTER_RING_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mercury::cluster
{

/** Load summary over the ring's nodes. */
struct LoadStats
{
    double mean = 0.0;
    double max = 0.0;
    double min = 0.0;
    /** max / mean; 1.0 is a perfectly even split. */
    double imbalance = 0.0;
    /** Coefficient of variation across nodes. */
    double cv = 0.0;
};

class ConsistentHashRing
{
  public:
    /** @param virtual_nodes ring points per physical node */
    explicit ConsistentHashRing(unsigned virtual_nodes = 40);

    /** Add a node. @return false if the name already exists.
     * @param rack failure-domain label (rack-aware replica
     * placement); nodes default to rack 0. */
    bool addNode(const std::string &name, unsigned rack = 0);

    /** Node responsible for a key.
     * @pre at least one node present. */
    const std::string &nodeFor(std::string_view key) const;

    /**
     * Up to @p count distinct nodes in ring order starting at the
     * key's owner -- the failover order a memcached client walks
     * when the primary does not answer. Answers in node indices
     * (see nodeName()).
     * @pre at least one node present.
     */
    std::vector<std::size_t> nodesFor(std::string_view key,
                                      std::size_t count) const;

    /**
     * Replica set for a key: the first @p count distinct nodes in
     * ring order, optionally spread across failure domains. With
     * @p distinct_racks, after the primary each successive replica
     * prefers the next ring successor whose rack has not been used
     * yet (falling back to plain ring order once every rack is
     * represented), so a rack-correlated crash cannot take out a
     * whole replica set while other racks hold spares. A @p count
     * that covers every node is plain ring order. Answers in node
     * indices (see nodeName()).
     * @pre at least one node present.
     */
    std::vector<std::size_t> replicasFor(std::string_view key,
                                         std::size_t count,
                                         bool distinct_racks) const;

    /**
     * Name of the node at @p index. The ring is append-only: indices
     * follow add order and never change.
     * @pre index < numNodes()
     */
    const std::string &nodeName(std::size_t index) const;

    std::size_t numNodes() const { return nodes_.size(); }

    /** Distribute @p samples uniform-random keys and summarize the
     * per-node request counts. */
    LoadStats sampleLoad(std::size_t samples,
                         std::uint64_t seed = 1) const;

  private:
    using RingIter =
        std::map<std::uint64_t, std::size_t>::const_iterator;

    /** Append to @p order, walking the ring from @p from, each owner
     * not yet marked in @p seen (marking it), until @p order holds
     * @p count nodes or every node. */
    void appendSuccessors(RingIter from, std::size_t count,
                          std::vector<bool> &seen,
                          std::vector<std::size_t> &order) const;

    unsigned virtualNodes_;
    std::vector<std::string> nodes_;
    /** Rack label per node, parallel to nodes_. */
    std::vector<unsigned> racks_;
    /** hash point -> node index. */
    std::map<std::uint64_t, std::size_t> ring_;
};

} // namespace mercury::cluster

#endif // MERCURY_CLUSTER_RING_HH
