/**
 * @file
 * Ablation: FTL write amplification and wear under PUT-heavy load,
 * vs overprovisioning and workload skew. Sustained Iridium PUT
 * throughput degrades with GC activity; this quantifies how much
 * headroom the 7% default overprovision buys.
 *
 * The FTL takes its block size, GC low-water mark and wear-leveling
 * threshold from FlashParams, as the Iridium flash model does.
 * --smoke runs the full configuration (it takes a fraction of a
 * second): a smaller FTL has so few blocks that the GC headroom, not
 * the overprovision, sets its write amplification. The FTL's 576
 * blocks (73,728 pages) sit above the 64 Ki-page bound past which
 * the slow-check audit (MERCURY_EXTRA_CHECKS) samples every 1024th
 * write instead of auditing each one; auditing each of its 2 M
 * writes in full takes the sanitizer preset minutes.
 *
 * Knob moved: the `Ftl` overprovision argument (the full flash
 * model fixes `FlashParams::overprovision` at 0.07), under uniform
 * and hot-10% overwrite churn.
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
    const FlashParams params;
    Ftl ftl(phys_pages, params.pagesPerBlock, overprovision,
            FlashParams::gcLowWaterBlocks,
            FlashParams::wearLevelThreshold);
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
    const std::uint64_t phys_pages = 4096 * 18;
    for (double op : {0.07, 0.15, 0.28}) {
        for (double hot : {1.0, 0.1}) {
            const Result r = churn(phys_pages, op, hot, 42);
            std::printf("op=%.2f %s %9.2f %12u %12llu\n", op,
                        hot < 1.0 ? "hot10%" : "unifrm",
                        r.writeAmplification, r.eraseSpread,
                        static_cast<unsigned long long>(r.erases));
        }
    }
    std::printf("\nMore overprovision cuts GC work at either skew; "
                "the hot-10%% churn moves WA by under 2%% until "
                "op=0.28, where it cuts it by a fifth. Wear "
                "leveling holds the erase spread near its threshold "
                "(%u) in every case.\n",
                FlashParams::wearLevelThreshold);
    return 0;
}
