/**
 * @file
 * Regenerates paper Table 4: A7-based Mercury and Iridium (n = 8,
 * 16, 32 cores per stack) against Memcached 1.4 / 1.6 / Bags on a
 * state-of-the-art server and the TSSP accelerator, all at 64 B GET
 * requests.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/baseline.hh"
#include "bench_util.hh"
#include "config/explorer.hh"
#include "config/perf_oracle.hh"

namespace
{

using namespace mercury;
using namespace mercury::baseline;
using namespace mercury::config;
using namespace mercury::physical;

struct Row
{
    std::string name;
    unsigned stacks;
    unsigned cores;
    double memoryGB;
    double powerW;
    double mtps;
    double ktpsPerWatt;
    double ktpsPerGB;
    double bwGBs;
};

Row
fromDesign(const std::string &name, const ServerDesign &design)
{
    return {name,
            design.stacks,
            design.cores,
            design.densityGB,
            design.powerAt64BW,
            design.tps64 / 1e6,
            design.tpsPerWatt() / 1e3,
            design.tpsPerGB() / 1e3,
            design.bw64GBs};
}

/** The abstract's four headline ratios of one design against Bags. */
struct Headline
{
    double density;
    double tps;
    double tpsPerWatt;
    /** Mercury's TPS/GB gain; Iridium's TPS/GB shortfall (Bags over
     * Iridium), as the paper quotes it. */
    double tpsPerGB;
};

/** Publish @p h as results.<design>.* ratios. */
void
addHeadline(bench::ResultsFragment &results, const std::string &design,
            const Headline &h, const char *per_gb_key)
{
    results.add(design + ".density_x", h.density);
    results.add(design + ".tps_x", h.tps);
    results.add(design + ".tps_per_watt_x", h.tpsPerWatt);
    results.add(design + per_gb_key, h.tpsPerGB);
}

Row
fromBaseline(const BaselineServer &server)
{
    return {server.name,
            1,
            server.cores,
            server.memoryGB,
            server.powerW,
            server.tps / 1e6,
            server.tpsPerWatt() / 1e3,
            server.tpsPerGB() / 1e3,
            server.bwGBs};
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "table4_comparison");
    bench::banner("Table 4: A7-based Mercury and Iridium vs prior "
                  "art (64 B GET requests)");

    DesignExplorer explorer;
    std::vector<Row> rows;

    for (StackMemory memory :
         {StackMemory::Dram3D, StackMemory::Flash3D}) {
        StackConfig stack;
        stack.core = cpu::cortexA7Params();
        stack.memory = memory;
        stack.withL2 = memory == StackMemory::Flash3D;
        const PerCorePerf perf = measurePerCorePerf(stack);
        const char *family =
            memory == StackMemory::Dram3D ? "Mercury" : "Iridium";
        for (unsigned n : {8u, 16u, 32u}) {
            stack.coresPerStack = n;
            rows.push_back(fromDesign(
                std::string(family) + "-" + std::to_string(n),
                explorer.solve(stack, perf)));
        }
    }

    rows.push_back(fromBaseline(
        memcachedBaseline(MemcachedVersion::V14)));
    rows.push_back(fromBaseline(
        memcachedBaseline(MemcachedVersion::V16)));
    rows.push_back(fromBaseline(
        memcachedBaseline(MemcachedVersion::Bags)));
    rows.push_back(fromBaseline(tsspReference()));

    std::printf("%-16s %7s %7s %10s %9s %14s %12s %12s %10s\n",
                "Configuration", "Stacks", "Cores", "Memory(GB)",
                "Power(W)", "TPS(millions)", "KTPS/Watt", "KTPS/GB",
                "BW(GB/s)");
    bench::rule(104);
    for (const Row &row : rows) {
        std::printf("%-16s %7u %7u %10.0f %9.0f %14.2f %12.2f "
                    "%12.2f %10.2f\n",
                    row.name.c_str(), row.stacks, row.cores,
                    row.memoryGB, row.powerW, row.mtps,
                    row.ktpsPerWatt, row.ktpsPerGB, row.bwGBs);
    }

    // The abstract's headline ratios, relative to the Bags baseline.
    const Row &mercury32 = rows[2];
    const Row &iridium32 = rows[5];
    const Row bags = fromBaseline(
        memcachedBaseline(MemcachedVersion::Bags));

    const Headline m{mercury32.memoryGB / bags.memoryGB,
                     mercury32.mtps / bags.mtps,
                     mercury32.ktpsPerWatt / bags.ktpsPerWatt,
                     mercury32.ktpsPerGB / bags.ktpsPerGB};
    const Headline ir{iridium32.memoryGB / bags.memoryGB,
                      iridium32.mtps / bags.mtps,
                      iridium32.ktpsPerWatt / bags.ktpsPerWatt,
                      bags.ktpsPerGB / iridium32.ktpsPerGB};

    bench::banner("Headline ratios vs optimized Memcached (Bags)");
    std::printf("Mercury-32: density %.1fx  TPS %.1fx  TPS/W %.1fx  "
                "TPS/GB %.1fx\n",
                m.density, m.tps, m.tpsPerWatt, m.tpsPerGB);
    std::printf("Iridium-32: density %.1fx  TPS %.1fx  TPS/W %.1fx  "
                "TPS/GB %.2fx (lower)\n",
                ir.density, ir.tps, ir.tpsPerWatt, ir.tpsPerGB);
    std::printf("(Paper: Mercury 2.9x / 10x / 4.9x / 3.5x; "
                "Iridium 14x / 5.2x / 2.4x / 2.8x-lower)\n");

    bench::ResultsFragment results;
    addHeadline(results, "mercury32", m, ".tps_per_gb_x");
    addHeadline(results, "iridium32", ir, ".tps_per_gb_lower_x");
    session.appendStatsFragment(results.text());
    return 0;
}
