/**
 * @file
 * Regenerates paper Figure 4: components of GET and PUT request
 * time (hash computation / memcached metadata / network stack &
 * data transfer) across request sizes 64 B - 1 MB, on an A15 @1 GHz
 * with a 2 MB L2 and 10 ns DRAM.
 *
 * The breakdown is a query over the node's stats registry: measure*()
 * resets the per-stage "window" histograms at the warmup boundary, so
 * afterwards each histogram holds exactly the sampled requests and
 * its mean is the figure's per-stage average.
 *
 * --stats-json publishes every printed share as
 * results.<get|put>.<size>.<memcached|kernel|wire|hash>_share.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "server/server_model.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

/** Average ticks spent in one stage over the measurement window. */
Tick
windowAverage(const ServerModel &server, const char *stage)
{
    const auto *stat =
        server.stats().find(std::string("window.") + stage);
    const auto *hist =
        dynamic_cast<const stats::LatencyHistogram *>(stat);
    MERCURY_ASSERT(hist != nullptr && hist->count() > 0,
                   "missing window histogram for stage ", stage);
    return static_cast<Tick>(hist->totalSum() / hist->count());
}

RttBreakdown
windowBreakdown(const ServerModel &server)
{
    RttBreakdown b;
    b.wire = windowAverage(server, "wireTicks");
    b.netstack = windowAverage(server, "netstackTicks");
    b.hash = windowAverage(server, "hashTicks");
    b.memcached = windowAverage(server, "memcachedTicks");
    b.nicCache = windowAverage(server, "nicCacheTicks");
    return b;
}

void
sweep(mercury::bench::Session &session, bool puts,
      bench::ResultsFragment &published)
{
    ServerModelParams params;
    params.core = cpu::cortexA15Params(1.0);
    params.withL2 = true;
    params.memory = MemoryKind::StackedDram;
    params.dramArrayLatency = 10 * tickNs;
    params.storeMemLimit = 224 * miB;
    params.name = puts ? "fig4b" : "fig4a";
    params.statsParent = session.statsParent();
    params.tracer = session.tracer();
    ServerModel server(params);

    // "Kernel" is CPU time in the network stack; "Wire" is
    // serialization + propagation. The paper's Fig. 4 "network
    // stack" bar is their sum (networkFraction()).
    std::printf("%-8s %12s %12s %12s %12s\n", "Size",
                "Memcached", "Kernel", "Wire", "Hash");
    bench::rule(62);
    for (std::uint32_t size : session.sizes()) {
        if (puts)
            server.measurePuts(size);
        else
            server.measureGets(size);
        const RttBreakdown b = windowBreakdown(server);
        const std::string label = bench::sizeLabel(size);
        std::printf("%-8s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
                    label.c_str(), b.memcachedFraction() * 100,
                    b.netstackFraction() * 100,
                    b.wireFraction() * 100,
                    b.hashFraction() * 100);
        const std::string row =
            std::string(puts ? "put." : "get.") + label;
        published.add(row + ".memcached_share", b.memcachedFraction());
        published.add(row + ".kernel_share", b.netstackFraction());
        published.add(row + ".wire_share", b.wireFraction());
        published.add(row + ".hash_share", b.hashFraction());
    }
    std::printf("\n");
    session.capture();  // the model (and its stat tree) dies here
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "fig4");
    mercury::bench::ResultsFragment published;

    mercury::bench::banner(
        "Figure 4a: components of GET execution time "
        "(A15 @1GHz, 2MB L2, 10ns DRAM)");
    sweep(session, false, published);

    mercury::bench::banner(
        "Figure 4b: components of PUT execution time");
    sweep(session, true, published);
    session.appendStatsFragment(published.text());
    return 0;
}
