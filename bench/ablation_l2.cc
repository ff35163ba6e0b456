/**
 * @file
 * Ablation: L2 capacity. Sec. 4.1.3 drops the L2 entirely for
 * Mercury; Sec. 4.2.1 mandates one for Iridium. This sweep shows
 * both decisions: on Mercury at 10 ns DRAM the L2 size barely
 * matters, while Iridium needs enough L2 to hold the instruction
 * footprint and hot metadata in front of flash.
 *
 * Knob moved: `ServerModelParams::l2SizeBytes` (with `withL2`),
 * at two `dramArrayLatency` values and on flash.
 */

#include <cstdio>

#include "bench_util.hh"
#include "server/server_model.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

double
tpsFor(MemoryKind memory, std::uint64_t l2_bytes, Tick dram_latency)
{
    ServerModelParams p;
    p.core = cpu::cortexA7Params();
    p.withL2 = l2_bytes > 0;
    p.l2SizeBytes = l2_bytes;
    p.memory = memory;
    p.dramArrayLatency = dram_latency;
    p.storeMemLimit = 48 * miB;
    ServerModel model(p);
    return model.measureGets(64).avgTps;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_l2");
    using mercury::bench::rule;

    mercury::bench::banner(
        "Ablation: L2 capacity sweep (A7, 64 B GETs)");

    std::printf("%-12s %14s %14s %14s\n", "L2 size",
                "Mercury@10ns", "Mercury@100ns", "Iridium");
    rule(58);
    const struct
    {
        const char *label;
        std::uint64_t bytes;
    } sizes[] = {
        {"none", 0},
        {"512KiB", 512 * kiB},
        {"1MiB", 1 * miB},
        {"2MiB", 2 * miB},
        {"4MiB", 4 * miB},
    };
    for (const auto &size : sizes) {
        std::printf("%-12s %14.0f %14.0f %14.0f\n", size.label,
                    tpsFor(MemoryKind::StackedDram, size.bytes,
                           10 * tickNs),
                    tpsFor(MemoryKind::StackedDram, size.bytes,
                           100 * tickNs),
                    tpsFor(MemoryKind::Flash, size.bytes,
                           10 * tickUs));
    }
    std::printf("\nMercury at fast DRAM is L2-insensitive "
                "(Sec. 4.1.3 drops it); Iridium is not "
                "(Sec. 4.2.1).\n");
    return 0;
}
