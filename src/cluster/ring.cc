#include "cluster/ring.hh"

#include <algorithm>
#include <cmath>

#include "kvstore/hash.hh"
#include "sim/contract.hh"
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
    MERCURY_EXPECTS(virtualNodes_ >= 1,
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

const std::string &
ConsistentHashRing::nodeFor(std::string_view key) const
{
    MERCURY_EXPECTS(!ring_.empty(), "ring has no nodes");
    const std::uint64_t point = kvstore::hashKey(key);
    auto it = ring_.lower_bound(point);
    if (it == ring_.end())
        it = ring_.begin();  // wrap around the circle
    return nodes_[it->second];
}

void
ConsistentHashRing::appendSuccessors(RingIter from, std::size_t count,
                                     std::vector<bool> &seen,
                                     std::vector<std::size_t> &order) const
{
    const std::size_t want = std::min(count, nodes_.size());
    auto it = from;
    // Walk the circle at most once, collecting each unseen owner in
    // the order its next virtual point appears.
    for (std::size_t steps = 0;
         steps < ring_.size() && order.size() < want; ++steps) {
        if (it == ring_.end())
            it = ring_.begin();
        const std::size_t owner = it->second;
        if (!seen[owner]) {
            seen[owner] = true;
            order.push_back(owner);
        }
        ++it;
    }
}

std::vector<std::size_t>
ConsistentHashRing::nodesFor(std::string_view key,
                             std::size_t count) const
{
    MERCURY_EXPECTS(!ring_.empty(), "ring has no nodes");
    std::vector<std::size_t> order;
    order.reserve(std::min(count, nodes_.size()));
    std::vector<bool> seen(nodes_.size(), false);
    appendSuccessors(ring_.lower_bound(kvstore::hashKey(key)), count,
                     seen, order);
    return order;
}

std::vector<std::size_t>
ConsistentHashRing::replicasFor(std::string_view key,
                                std::size_t count,
                                bool distinct_racks) const
{
    if (!distinct_racks || count >= nodes_.size())
        return nodesFor(key, count);

    // Greedy rack spreading: keep the primary, then take each ring
    // successor whose rack is not represented yet. A node passed over
    // for its rack stays passed over (the represented racks only
    // grow), so each pick is the earliest such node in ring order.
    std::vector<std::size_t> order;
    order.reserve(count);
    const RingIter from = ring_.lower_bound(kvstore::hashKey(key));
    auto it = from;
    for (std::size_t steps = 0;
         steps < ring_.size() && order.size() < count; ++steps) {
        if (it == ring_.end())
            it = ring_.begin();
        const unsigned rack = racks_[it->second];
        if (std::none_of(order.begin(), order.end(),
                         [&](std::size_t n) {
                             return racks_[n] == rack;
                         })) {
            order.push_back(it->second);
        }
        ++it;
    }
    // Fewer racks than replicas: every rack is represented, so fill
    // the rest in plain ring order.
    if (order.size() < count) {
        std::vector<bool> seen(nodes_.size(), false);
        for (const std::size_t n : order)
            seen[n] = true;
        appendSuccessors(from, count, seen, order);
    }
    return order;
}

const std::string &
ConsistentHashRing::nodeName(std::size_t index) const
{
    MERCURY_EXPECTS(index < nodes_.size(), "no node at index ", index);
    return nodes_[index];
}

LoadStats
ConsistentHashRing::sampleLoad(std::size_t samples,
                               std::uint64_t seed) const
{
    MERCURY_EXPECTS(!nodes_.empty(), "ring has no nodes");
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

} // namespace mercury::cluster
