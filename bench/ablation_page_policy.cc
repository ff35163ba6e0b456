/**
 * @file
 * Ablation: DRAM row-buffer policy. The paper's memory model
 * assumes closed-page latency for every access as a worst case
 * (Sec. 5.2). Open-page exposes row hits for streaming values.
 *
 * Knob moved: `ServerModelParams::dramPagePolicy` (closed vs open
 * page).
 */

#include <cstdio>

#include "bench_util.hh"
#include "server/server_model.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

ServerModel
make(mem::PagePolicy policy, Tick latency)
{
    ServerModelParams p;
    p.core = cpu::cortexA7Params();
    p.withL2 = false;
    p.memory = MemoryKind::StackedDram;
    p.dramPagePolicy = policy;
    p.dramArrayLatency = latency;
    p.storeMemLimit = 48 * miB;
    return ServerModel(p);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_page_policy");
    bench::banner("Ablation: DRAM closed-page (paper worst case) vs "
                  "open-page (A7, no L2)");

    for (Tick latency : {10 * tickNs, 50 * tickNs}) {
        ServerModel closed = make(mem::PagePolicy::Closed, latency);
        ServerModel open = make(mem::PagePolicy::Open, latency);

        std::printf("DRAM array latency %llu ns\n",
                    static_cast<unsigned long long>(latency /
                                                    tickNs));
        std::printf("%-8s %14s %14s %10s\n", "Size", "closed TPS",
                    "open TPS", "open gain");
        bench::rule(52);
        for (std::uint32_t size : {64u, 4096u, 65536u, 1048576u}) {
            const double closed_tps =
                closed.measureGets(size).avgTps;
            const double open_tps = open.measureGets(size).avgTps;
            std::printf("%-8s %14.0f %14.0f %9.2fx\n",
                        bench::sizeLabel(size).c_str(), closed_tps,
                        open_tps, open_tps / closed_tps);
        }
        std::printf("\n");
    }
    return 0;
}
