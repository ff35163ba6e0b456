/**
 * @file
 * Kernel-bypass datapath sweep. Fig. 4 charges 87-97 % of a small
 * GET to the Linux network stack; this bench quantifies how much of
 * that a modeled kernel-bypass datapath buys back, in three steps:
 *
 *   A. 64 B GET path shootout -- TCP vs UDP vs bypass (batch 1) vs
 *      bypass (batch 32) vs bypass + on-NIC GET cache -- with the
 *      per-request breakdown split into kernel / wire / NIC-cache
 *      shares, on the Fig. 4 A15 @1GHz Mercury node.
 *
 *   B. RX/TX batch-size sweep: amortizing descriptor-ring and
 *      doorbell costs over the batch is where a poll-mode driver's
 *      per-packet cost goes sub-microsecond.
 *
 *   C. The design-space consequence: Table-3-style A7 Mercury and
 *      Iridium frontiers re-solved with the bypass datapath and a
 *      0.5 MB NIC cache charged to the logic die (area + power).
 *
 * Every section is a ParallelSweep; `--jobs N` output stays
 * byte-identical to the serial run.
 */

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "config/explorer.hh"
#include "config/perf_oracle.hh"
#include "parallel_sweep.hh"
#include "server/server_model.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::config;
using namespace mercury::physical;
using namespace mercury::server;

/** One datapath configuration of the shootout. */
struct PathChoice
{
    const char *label;
    net::DatapathParams datapath;
};

/** Outcome of one closed-loop row. */
struct RowResult
{
    double tps = 0.0;
    double rttUs = 0.0;
    RttBreakdown avg;
    double hitRate = -1.0; ///< < 0: no NIC cache configured
};

/**
 * Closed-loop 64 B GET run against a fixed keyset: one warm pass
 * (fills the CPU caches and, when enabled, the NIC cache), then
 * @p requests uniform-random GETs. Unlike measureGets' 12-sample
 * window this drives enough traffic for a NIC cache to reach its
 * steady-state hit rate.
 */
RowResult
runRow(const PathChoice &choice, unsigned requests,
       bench::PointContext &ctx, const std::string &name)
{
    ServerModelParams p;
    p.core = cpu::cortexA15Params(1.0);
    p.withL2 = true;
    p.memory = MemoryKind::StackedDram;
    p.dramArrayLatency = 10 * tickNs;
    p.storeMemLimit = 224 * miB;
    p.datapath = choice.datapath;
    p.name = name;
    p.statsParent = ctx.statsParent();
    ServerModel node(p);

    const unsigned keys = 1024;
    node.populate(keys, 64);
    for (unsigned k = 0; k < keys; ++k)
        node.get("v64:" + std::to_string(k));

    Rng rng(42);
    RowResult row;
    Tick wire = 0, netstack = 0, hash = 0, memcached = 0, nic = 0;
    // Hit rate over the measured window only; the warm pass's
    // compulsory misses are not steady state.
    std::uint64_t warm_hits = 0, warm_misses = 0;
    if (const net::NicGetCache *cache = node.nicCache()) {
        warm_hits = cache->hits();
        warm_misses = cache->misses();
    }
    const Tick begin = node.now();
    for (unsigned i = 0; i < requests; ++i) {
        const std::string key =
            "v64:" + std::to_string(rng.nextInt(keys));
        const RequestTiming t = node.get(key);
        wire += t.breakdown.wire;
        netstack += t.breakdown.netstack;
        hash += t.breakdown.hash;
        memcached += t.breakdown.memcached;
        nic += t.breakdown.nicCache;
    }
    const Tick span = node.now() - begin;

    row.tps = static_cast<double>(requests) / ticksToSeconds(span);
    row.rttUs = ticksToUs(span) / requests;
    row.avg = {wire / requests, netstack / requests, hash / requests,
               memcached / requests, nic / requests};
    if (const net::NicGetCache *cache = node.nicCache()) {
        const double hits =
            static_cast<double>(cache->hits() - warm_hits);
        const double lookups =
            hits + static_cast<double>(cache->misses() -
                                       warm_misses);
        row.hitRate = lookups > 0.0 ? hits / lookups : 0.0;
    }
    // Fold this model's stats into the point's fragment before it
    // unregisters (the model is transient; see Session::capture()).
    ctx.capture();
    return row;
}

void
printRow(mercury::bench::PointContext &ctx, const char *label,
         const RowResult &row)
{
    ctx.printf("%-22s %9.0f %8.2f %8.1f%% %7.1f%% %8.1f%% %8.1f%%",
               label, row.tps, row.rttUs,
               row.avg.netstackFraction() * 100,
               row.avg.wireFraction() * 100,
               row.avg.nicCacheFraction() * 100,
               row.avg.memcachedFraction() * 100);
    ctx.printf("\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Session session(argc, argv, "datapath_sweep");
    const unsigned requests = session.smoke() ? 400 : 4000;

    // ---- Section A: path shootout --------------------------------
    const PathChoice choices[] = {
        {"kernel TCP", {}},
        {"kernel UDP", {net::DatapathKind::KernelUdp}},
        {"bypass batch=1", {net::DatapathKind::Bypass, 1, 1, false, 0}},
        {"bypass batch=32",
         {net::DatapathKind::Bypass, 32, 32, false, 0}},
        {"bypass b=32 +niccache",
         {net::DatapathKind::Bypass, 32, 32, false, 4096}},
    };

    bench::banner("Datapath shootout: 64 B GETs, A15 @1GHz Mercury "
                  "(Fig. 4 node)");
    std::vector<RowResult> rows(std::size(choices));
    bench::ParallelSweep sweep(session);
    for (std::size_t i = 0; i < std::size(choices); ++i) {
        sweep.point([&, i](bench::PointContext &ctx) {
            if (i == 0) {
                ctx.printf("%-22s %9s %8s %9s %8s %9s %9s\n", "Path",
                           "TPS", "RTT us", "Kernel", "Wire",
                           "NICcache", "Memcached");
                ctx.printf("%s\n", bench::ruleString(78).c_str());
            }
            rows[i] = runRow(choices[i], requests, ctx,
                             std::string("dp_") + std::to_string(i));
            printRow(ctx, choices[i].label, rows[i]);
        });
    }
    sweep.run();
    std::printf("\nbypass gain over kernel TCP: %.2fx; NIC-cache "
                "hit rate at steady state: %.0f%%\n",
                rows[3].tps / rows[0].tps, rows[4].hitRate * 100);

    // ---- Section B: batch-size sweep -----------------------------
    bench::banner("RX/TX batch-size sweep (bypass, 64 B GETs)");
    const std::vector<unsigned> batches =
        session.smoke() ? std::vector<unsigned>{1, 8, 32}
                        : std::vector<unsigned>{1, 2, 4, 8, 16, 32,
                                                64};
    std::vector<RowResult> brows(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
        sweep.point([&, i](bench::PointContext &ctx) {
            if (i == 0) {
                ctx.printf("%-10s %12s %12s %12s\n", "Batch", "TPS",
                           "RTT us", "Kernel share");
                ctx.printf("%s\n", bench::ruleString(50).c_str());
            }
            PathChoice choice{"batch",
                              {net::DatapathKind::Bypass, batches[i],
                               batches[i], false, 0}};
            brows[i] =
                runRow(choice, requests, ctx,
                       "dp_batch" + std::to_string(batches[i]));
            ctx.printf("%-10u %12.0f %12.2f %11.1f%%\n", batches[i],
                       brows[i].tps, brows[i].rttUs,
                       brows[i].avg.netstackFraction() * 100);
        });
    }
    sweep.run();

    // ---- Section C: design-space consequence ---------------------
    bench::banner("Re-solved 1.5U frontier: A7 stacks, kernel vs "
                  "bypass + 0.5 MB NIC cache");
    struct Frontier
    {
        const char *family;
        StackMemory memory;
        const char *path;
        net::DatapathParams datapath;
        double nicCacheMB;
    };
    const net::DatapathParams bypass{net::DatapathKind::Bypass, 32,
                                     32, false, 0};
    const Frontier frontiers[] = {
        {"Mercury", StackMemory::Dram3D, "kernel", {}, 0.0},
        {"Mercury", StackMemory::Dram3D, "bypass+cache", bypass, 0.5},
        {"Iridium", StackMemory::Flash3D, "kernel", {}, 0.0},
        {"Iridium", StackMemory::Flash3D, "bypass+cache", bypass,
         0.5},
    };
    for (std::size_t i = 0; i < std::size(frontiers); ++i) {
        sweep.point([&, i](bench::PointContext &ctx) {
            const Frontier &f = frontiers[i];
            if (i == 0) {
                ctx.printf("%-8s %-13s %-8s %12s %10s %10s %10s\n",
                           "Family", "Path", "Config", "TPS@64B (M)",
                           "Power (W)", "KTPS/W", "GB");
                ctx.printf("%s\n", bench::ruleString(78).c_str());
            }
            DesignExplorer explorer;
            StackConfig stack;
            stack.core = cpu::cortexA7Params();
            stack.memory = f.memory;
            stack.withL2 = f.memory == StackMemory::Flash3D;
            stack.nicCacheMB = f.nicCacheMB;
            OracleOptions oracle;
            oracle.datapath = f.datapath;
            const PerCorePerf perf = measurePerCorePerf(stack,
                                                        oracle);
            for (unsigned n : {4u, 16u, 32u}) {
                stack.coresPerStack = n;
                const ServerDesign d = explorer.solve(stack, perf);
                ctx.printf("%-8s %-13s %s-%-6u %12.2f %10.0f %10.2f "
                           "%10.0f\n",
                           f.family, f.path, f.family[0] == 'M'
                                                 ? "M" : "I",
                           n, d.tps64 / 1e6, d.powerAt64BW,
                           d.tpsPerWatt() / 1e3, d.densityGB);
            }
        });
    }
    sweep.run();
    return 0;
}
