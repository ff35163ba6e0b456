/**
 * @file
 * Ablation: memory-level parallelism of the out-of-order core. The
 * paper observes that aggressive cores buy little once the network
 * stack dominates (Sec. 6.1); this sweep quantifies how much of the
 * A15's edge comes from miss overlap vs raw issue width.
 *
 * Knob moved: `CoreParams::mlpRandom` and `mlpSequential` of the
 * A15.
 */

#include <cstdio>

#include "bench_util.hh"
#include "server/server_model.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

double
tpsFor(unsigned mlp, Tick dram_latency, std::uint32_t size)
{
    ServerModelParams p;
    p.core = cpu::cortexA15Params(1.0);
    p.core.mlpRandom = mlp;
    p.core.mlpSequential = std::max(mlp, 1u);
    p.withL2 = false;
    p.dramArrayLatency = dram_latency;
    p.storeMemLimit = 48 * miB;
    ServerModel model(p);
    return model.measureGets(size).avgTps;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_mlp");
    bench::banner("Ablation: A15 miss-overlap width (no L2)");

    std::printf("%-6s %16s %16s %16s\n", "MLP", "64B @10ns",
                "64B @100ns", "64K @100ns");
    bench::rule(58);
    for (unsigned mlp : {1u, 2u, 4u, 8u}) {
        std::printf("%-6u %16.0f %16.0f %16.0f\n", mlp,
                    tpsFor(mlp, 10 * tickNs, 64),
                    tpsFor(mlp, 100 * tickNs, 64),
                    tpsFor(mlp, 100 * tickNs, 65536));
    }
    std::printf("\nOverlap matters most for streaming at slow "
                "memory; at 10 ns DRAM the network stack dominates "
                "and MLP buys almost nothing.\n");
    return 0;
}
