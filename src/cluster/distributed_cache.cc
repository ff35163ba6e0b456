#include "cluster/distributed_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mercury::cluster
{

DistributedCache::DistributedCache(
    unsigned nodes, const kvstore::StoreParams &store_params,
    unsigned virtual_nodes)
    : storeParams_(store_params), ring_(virtual_nodes)
{
    mercury_assert(nodes >= 1, "cluster needs at least one node");
    for (unsigned i = 0; i < nodes; ++i)
        addNode();
}

std::string
DistributedCache::addNode()
{
    const std::string name = "node" + std::to_string(nextNodeId_++);
    kvstore::StoreParams params = storeParams_;
    params.name = name;
    nodes_.push_back(
        Node{name, std::make_unique<kvstore::Store>(params)});
    ring_.addNode(name);
    return name;
}

bool
DistributedCache::removeNode(const std::string &name)
{
    auto it = std::find_if(nodes_.begin(), nodes_.end(),
                           [&](const Node &node) {
                               return node.name == name;
                           });
    if (it == nodes_.end())
        return false;

    // Sample the remap fraction while the node is still on the ring;
    // its items are lost outright (nothing re-replicates them).
    if (ring_.numNodes() > 1) {
        topology_.lastRemapFraction =
            ring_.remapFractionOnRemoval(name, 2000);
    } else {
        topology_.lastRemapFraction = 1.0;
    }
    topology_.lostItems += it->store->itemCount();
    ++topology_.removedNodes;

    ring_.removeNode(name);
    nodes_.erase(it);
    return true;
}

DistributedCache::Node *
DistributedCache::find(const std::string &name)
{
    for (Node &node : nodes_) {
        if (node.name == name)
            return &node;
    }
    return nullptr;
}

DistributedCache::Node &
DistributedCache::ownerOf(std::string_view key)
{
    const std::string &name = ring_.nodeFor(key);
    Node *node = find(name);
    if (!node)
        mercury_panic("ring returned unknown node ", name);
    return *node;
}

kvstore::Store &
DistributedCache::storeOf(const std::string &name)
{
    Node *node = find(name);
    if (!node)
        mercury_panic("unknown node ", name);
    return *node->store;
}

kvstore::GetResult
DistributedCache::get(std::string_view key)
{
    return ownerOf(key).store->get(key);
}

kvstore::StoreStatus
DistributedCache::set(std::string_view key, std::string_view value,
                      std::uint32_t flags, std::uint32_t ttl)
{
    return ownerOf(key).store->set(key, value, flags, ttl);
}

kvstore::StoreStatus
DistributedCache::remove(std::string_view key)
{
    return ownerOf(key).store->remove(key);
}

std::vector<std::pair<std::string, std::size_t>>
DistributedCache::itemCounts() const
{
    std::vector<std::pair<std::string, std::size_t>> counts;
    counts.reserve(nodes_.size());
    for (const Node &node : nodes_)
        counts.emplace_back(node.name, node.store->itemCount());
    return counts;
}

} // namespace mercury::cluster
