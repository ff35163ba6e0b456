/**
 * @file
 * Ablation: page-structured NAND vs the paper's flat per-access
 * flash latency.
 *
 * Our flash model exposes page locality: one array sense brings a
 * 4 KiB page into the channel register and subsequent lines cost
 * only the transfer, and a write buffer coalesces scattered dirty
 * lines page-at-a-time. The paper's gem5 memory model instead
 * charged the full 10-20 us on every access. Setting the model's
 * page size to one cache line degenerates it to exactly the paper's
 * behaviour, which is how we reconcile the Iridium magnitudes in
 * EXPERIMENTS.md (large-request bandwidth in particular).
 *
 * --smoke measures the 64 B and 16 KB rows only. Each row runs on a
 * fresh pair of models, so a row reads the same at --smoke and in
 * the full run.
 *
 * Knob moved: `ServerModelParams::flashPageBytes` (4 KiB vs one
 * 64 B line).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "server/server_model.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

ServerModelParams
iridium(bool flat)
{
    ServerModelParams p;
    p.core = cpu::cortexA7Params();
    p.withL2 = true;
    p.memory = MemoryKind::Flash;
    p.storeMemLimit = 48 * miB;
    if (flat) {
        // One line per page: every access pays the array latency,
        // and every dirtied line is its own program.
        p.flashPageBytes = 64;
        p.flashCapacity = 768 * miB;
    }
    return p;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_flash_model");
    bench::banner("Ablation: page-structured NAND vs the paper's "
                  "flat per-access flash model (Iridium-1, A7+L2)");

    std::printf("%-8s %15s %15s %15s %15s\n", "Size",
                "paged GET", "flat GET", "paged PUT", "flat PUT");
    bench::rule(76);
    const std::vector<std::uint32_t> sizes =
        session.smoke() ? std::vector<std::uint32_t>{64u, 16384u}
                        : std::vector<std::uint32_t>{64u, 1024u, 16384u,
                                                     262144u, 1048576u};
    for (std::uint32_t size : sizes) {
        // A fresh pair per row: a model's flash and L2 state after
        // one size would otherwise leak into the next row.
        ServerModel paged(iridium(false));
        ServerModel flat(iridium(true));
        const double paged_get = paged.measureGets(size).avgTps;
        const double flat_get = flat.measureGets(size).avgTps;
        const double paged_put = paged.measurePuts(size, 6, 2).avgTps;
        const double flat_put = flat.measurePuts(size, 6, 2).avgTps;
        std::printf("%-8s %15.0f %15.0f %15.0f %15.0f\n",
                    bench::sizeLabel(size).c_str(), paged_get,
                    flat_get, paged_put, flat_put);
    }

    std::printf("\nThe flat model comes within 2x of the paper's "
                "Iridium magnitudes (the paper: ~10 MB/s per core at "
                "1 MB);\n"
                "the paged model is what real p-BiCS NAND with a "
                "page register delivers.\n");
    return 0;
}
