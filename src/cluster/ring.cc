#include "cluster/ring.hh"

#include <algorithm>
#include <cmath>

#include "kvstore/hash.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace mercury::cluster
{

namespace
{

/** "k<id>": the key of one load-sampling draw. */
std::string
sampleKey(std::uint64_t id)
{
    std::string key = "k";
    key.append(std::to_string(id));
    return key;
}

} // anonymous namespace

ConsistentHashRing::ConsistentHashRing(unsigned virtual_nodes)
    : virtualNodes_(virtual_nodes)
{
    mercury_assert(virtualNodes_ >= 1,
                   "need at least one virtual node per node");
}

bool
ConsistentHashRing::addNode(const std::string &name, unsigned rack)
{
    if (std::find(nodes_.begin(), nodes_.end(), name) != nodes_.end())
        return false;

    const std::size_t index = nodes_.size();
    nodes_.push_back(name);
    racks_.push_back(rack);
    for (unsigned v = 0; v < virtualNodes_; ++v) {
        const std::uint64_t point = kvstore::hashKey(name, v + 1);
        ring_[point] = index;
    }
    return true;
}

bool
ConsistentHashRing::removeNode(const std::string &name)
{
    auto it = std::find(nodes_.begin(), nodes_.end(), name);
    if (it == nodes_.end())
        return false;
    const auto index =
        static_cast<std::size_t>(it - nodes_.begin());

    for (unsigned v = 0; v < virtualNodes_; ++v)
        ring_.erase(kvstore::hashKey(name, v + 1));

    // Keep indices of the other nodes stable: swap the last node's
    // points onto the vacated slot.
    const std::size_t last = nodes_.size() - 1;
    if (index != last) {
        nodes_[index] = std::move(nodes_[last]);
        racks_[index] = racks_[last];
        for (auto &[point, owner] : ring_) {
            if (owner == last)
                owner = index;
        }
    }
    nodes_.pop_back();
    racks_.pop_back();
    return true;
}

const std::string &
ConsistentHashRing::nodeFor(std::string_view key) const
{
    mercury_assert(!ring_.empty(), "ring has no nodes");
    const std::uint64_t point = kvstore::hashKey(key);
    auto it = ring_.lower_bound(point);
    if (it == ring_.end())
        it = ring_.begin();  // wrap around the circle
    return nodes_[it->second];
}

std::vector<std::string>
ConsistentHashRing::nodesFor(std::string_view key,
                             std::size_t count) const
{
    mercury_assert(!ring_.empty(), "ring has no nodes");
    std::vector<std::string> order;
    order.reserve(std::min(count, nodes_.size()));

    const std::uint64_t point = kvstore::hashKey(key);
    auto it = ring_.lower_bound(point);
    // Walk the circle once, collecting each distinct owner in the
    // order its next virtual point appears.
    for (std::size_t steps = 0;
         steps < ring_.size() && order.size() < count; ++steps) {
        if (it == ring_.end())
            it = ring_.begin();
        const std::string &owner = nodes_[it->second];
        if (std::find(order.begin(), order.end(), owner) ==
            order.end()) {
            order.push_back(owner);
        }
        ++it;
    }
    return order;
}

std::vector<std::string>
ConsistentHashRing::replicasFor(std::string_view key,
                                std::size_t count,
                                bool distinct_racks) const
{
    if (!distinct_racks)
        return nodesFor(key, count);

    // Full distinct-owner ring order, then greedy rack spreading:
    // keep the primary, prefer successors from unused racks, and fall
    // back to plain ring order once every rack is represented.
    std::vector<std::string> order = nodesFor(key, nodes_.size());
    if (order.size() <= count)
        return order;

    std::vector<std::string> picked;
    std::vector<bool> used(order.size(), false);
    std::vector<unsigned> racks_seen;
    picked.reserve(count);
    picked.push_back(order[0]);
    used[0] = true;
    racks_seen.push_back(rackOf(order[0]));

    while (picked.size() < count) {
        std::size_t chosen = order.size();
        for (std::size_t i = 1; i < order.size(); ++i) {
            if (used[i])
                continue;
            const unsigned rack = rackOf(order[i]);
            if (std::find(racks_seen.begin(), racks_seen.end(),
                          rack) == racks_seen.end()) {
                chosen = i;
                break;
            }
        }
        if (chosen == order.size()) {
            for (std::size_t i = 1; i < order.size(); ++i) {
                if (!used[i]) {
                    chosen = i;
                    break;
                }
            }
        }
        if (chosen == order.size())
            break;
        used[chosen] = true;
        picked.push_back(order[chosen]);
        racks_seen.push_back(rackOf(order[chosen]));
    }
    return picked;
}

unsigned
ConsistentHashRing::rackOf(const std::string &name) const
{
    auto it = std::find(nodes_.begin(), nodes_.end(), name);
    if (it == nodes_.end())
        return 0;
    return racks_[static_cast<std::size_t>(it - nodes_.begin())];
}

std::map<std::string, double>
ConsistentHashRing::arcShare() const
{
    std::map<std::string, double> share;
    if (ring_.empty())
        return share;

    const double full = std::pow(2.0, 64.0);
    std::uint64_t prev = std::prev(ring_.end())->first;
    bool first = true;
    for (const auto &[point, owner] : ring_) {
        // Arc from the previous point (exclusive) to this point
        // belongs to this point's owner.
        const std::uint64_t arc =
            first ? point + (~prev + 1) : point - prev;
        share[nodes_[owner]] += static_cast<double>(arc) / full;
        prev = point;
        first = false;
    }
    return share;
}

LoadStats
ConsistentHashRing::sampleLoad(std::size_t samples,
                               std::uint64_t seed) const
{
    mercury_assert(!nodes_.empty(), "ring has no nodes");
    Rng rng(seed);
    std::map<std::string, std::size_t> counts;
    for (const auto &node : nodes_)
        counts[node] = 0;

    for (std::size_t i = 0; i < samples; ++i) {
        const std::string key = sampleKey(rng.next());
        ++counts[nodeFor(key)];
    }

    LoadStats stats;
    stats.mean = static_cast<double>(samples) /
                 static_cast<double>(nodes_.size());
    stats.min = static_cast<double>(samples);
    double variance = 0.0;
    for (const auto &[node, count] : counts) {
        const auto c = static_cast<double>(count);
        stats.max = std::max(stats.max, c);
        stats.min = std::min(stats.min, c);
        variance += (c - stats.mean) * (c - stats.mean);
    }
    variance /= static_cast<double>(nodes_.size());
    stats.imbalance = stats.mean > 0.0 ? stats.max / stats.mean : 0.0;
    stats.cv = stats.mean > 0.0 ? std::sqrt(variance) / stats.mean
                                : 0.0;
    return stats;
}

double
ConsistentHashRing::remapFractionOnRemoval(const std::string &node,
                                           std::size_t samples,
                                           std::uint64_t seed) const
{
    ConsistentHashRing without(virtualNodes_);
    for (const auto &name : nodes_) {
        if (name != node)
            without.addNode(name);
    }
    mercury_assert(without.numNodes() + 1 == numNodes(),
                   "node to remove must be on the ring");

    Rng rng(seed);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < samples; ++i) {
        const std::string key = sampleKey(rng.next());
        if (nodeFor(key) != without.nodeFor(key))
            ++moved;
    }
    return static_cast<double>(moved) /
           static_cast<double>(samples);
}

} // namespace mercury::cluster
