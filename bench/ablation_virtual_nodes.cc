/**
 * @file
 * Ablation: DHT load balance vs virtual-node count and physical
 * node count (Sec. 3.8). Mercury/Iridium multiply physical nodes
 * per box, which shrinks each node's arc without virtual-node
 * tricks.
 *
 * --smoke samples 20k keys per ring instead of 200k and skips the
 * 768-node row.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "cluster/ring.hh"
#include "sim/logging.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;

LoadStats
statsFor(unsigned nodes, unsigned vnodes, std::size_t keys)
{
    ConsistentHashRing ring(vnodes);
    for (unsigned i = 0; i < nodes; ++i)
        ring.addNode("node" + std::to_string(i));
    return ring.sampleLoad(keys);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_virtual_nodes");
    const std::size_t keys = session.smoke() ? 20000 : 200000;
    bench::banner(mercury::detail::concat(
        "Ablation: consistent-hash load imbalance (max/mean over ",
        keys / 1000, "k keys)"));

    std::printf("%-14s", "Nodes\\VNodes");
    for (unsigned v : {1u, 4u, 16u, 64u, 256u})
        std::printf(" %9u", v);
    std::printf("\n");
    bench::rule(66);

    const std::vector<unsigned> node_counts =
        session.smoke() ? std::vector<unsigned>{4u, 16u, 96u}
                        : std::vector<unsigned>{4u, 16u, 96u, 768u};
    for (unsigned nodes : node_counts) {
        std::printf("%-14u", nodes);
        for (unsigned vnodes : {1u, 4u, 16u, 64u, 256u}) {
            const LoadStats stats = statsFor(nodes, vnodes, keys);
            std::printf(" %9.2f", stats.imbalance);
        }
        std::printf("\n");
    }
    std::printf("\nRelative imbalance needs virtual nodes to tame, "
                "but each node's absolute arc shrinks ~1/N: with 96 "
                "stacks per box the hottest node carries a tiny "
                "fraction of the keyspace, which is the paper's "
                "contention argument (Sec. 3.8).\n");
    return 0;
}
