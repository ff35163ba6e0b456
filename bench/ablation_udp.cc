/**
 * @file
 * Ablation: TCP vs UDP vs kernel-bypass GET paths. Fig. 4 shows
 * ~87% of a small GET is network-stack time; Facebook's production
 * answer was UDP GETs, and the logical end point of that line is a
 * batched poll-mode (DPDK-style) datapath. This quantifies how much
 * of the paper's headline throughput is a kernel tax, on both core
 * types.
 *
 * Each (core, size) pair is an independent ParallelSweep point whose
 * three models register under the point's stats tree, so
 * `--stats-json` runs are machine-diffable with tools/statdiff.py
 * and `--jobs N` output stays byte-identical to the serial run.
 */

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "parallel_sweep.hh"
#include "server/server_model.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

using net::DatapathKind;

const char *
pathName(DatapathKind path)
{
    switch (path) {
    case DatapathKind::KernelTcp:
        return "tcp";
    case DatapathKind::KernelUdp:
        return "udp";
    case DatapathKind::Bypass:
        return "bypass";
    }
    return "?";
}

double
tpsFor(const cpu::CoreParams &core, DatapathKind path,
       std::uint32_t size, bench::PointContext &ctx,
       const std::string &name)
{
    ServerModelParams p;
    p.core = core;
    p.withL2 = false;
    p.storeMemLimit = 48 * miB;
    p.name = name;
    p.statsParent = ctx.statsParent();
    p.datapath.kind = path;
    if (path == DatapathKind::Bypass) {
        p.datapath.rxBatch = 32;
        p.datapath.txBatch = 32;
    }
    ServerModel model(p);
    const double tps = model.measureGets(size).avgTps;
    // Fold this model's stats into the point's fragment before it
    // unregisters (the model is transient; see Session::capture()).
    ctx.capture();
    return tps;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_udp");
    bench::banner(
        "Ablation: TCP vs UDP vs bypass GET path (Mercury)");

    struct CoreChoice
    {
        const char *label;
        const char *slug;
        cpu::CoreParams core;
    };
    const std::vector<CoreChoice> cores = {
        {"A7", "a7", cpu::cortexA7Params()},
        {"A15 @1GHz", "a15", cpu::cortexA15Params(1.0)},
    };
    const std::vector<std::uint32_t> sizes =
        session.smoke() ? std::vector<std::uint32_t>{64u}
                        : std::vector<std::uint32_t>{64u, 1024u,
                                                     16384u};

    bench::ParallelSweep sweep(session);
    for (std::size_t ci = 0; ci < cores.size(); ++ci) {
        for (std::size_t si = 0; si < sizes.size(); ++si) {
            sweep.point([&, ci, si](bench::PointContext &ctx) {
                if (ci == 0 && si == 0) {
                    ctx.printf("%-12s %-8s %12s %12s %12s %10s "
                               "%10s\n",
                               "Core", "Size", "TCP TPS", "UDP TPS",
                               "Bypass TPS", "UDP gain",
                               "Byp gain");
                    ctx.printf("%s\n",
                               bench::ruleString(82).c_str());
                }
                const CoreChoice &choice = cores[ci];
                const std::uint32_t size = sizes[si];
                const std::string stem =
                    std::string(choice.slug) + "_s" +
                    std::to_string(size) + "_";
                double tps[3] = {0, 0, 0};
                for (DatapathKind path :
                     {DatapathKind::KernelTcp, DatapathKind::KernelUdp,
                      DatapathKind::Bypass}) {
                    tps[static_cast<int>(path)] =
                        tpsFor(choice.core, path, size, ctx,
                               stem + pathName(path));
                }
                ctx.printf("%-12s %-8s %12.0f %12.0f %12.0f %9.2fx "
                           "%9.2fx\n",
                           choice.label,
                           bench::sizeLabel(size).c_str(), tps[0],
                           tps[1], tps[2], tps[1] / tps[0],
                           tps[2] / tps[0]);
                ctx.capture();
            });
        }
    }
    sweep.run();
    std::printf("\nUDP roughly halves the per-request kernel work "
                "(Facebook's UDP GETs, TSSP's GET offload, Sec. "
                "3.7); the batched bypass path removes most of the "
                "rest, leaving wire time and memcached itself.\n");
    return 0;
}
