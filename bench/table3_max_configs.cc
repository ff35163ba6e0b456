/**
 * @file
 * Regenerates paper Table 3: power and area for maximum 1.5U
 * configurations -- {A15@1.5GHz, A15@1GHz, A7} x {1..32 cores/stack}
 * x {Mercury, Iridium}, reporting board area, wall power at the
 * peak-bandwidth operating point, density, and max bandwidth.
 *
 * Per-core throughput/bandwidth inputs are measured live with the
 * single-core server timing model (Sec. 5.2-5.3 methodology), then
 * scaled under the chassis constraints.
 *
 * Each (core, memory) block is an independent ParallelSweep point;
 * `--jobs N` output stays byte-identical to the serial run.
 * --stats-json publishes every printed cell as
 * results.<mercury|iridium>.<core>.cores<n>.<row>.
 */

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "config/explorer.hh"
#include "config/perf_oracle.hh"
#include "parallel_sweep.hh"

namespace
{

using namespace mercury;
using namespace mercury::config;
using namespace mercury::physical;

struct CoreChoice
{
    const char *label;
    /** Name of the core in results.* keys. */
    const char *key;
    cpu::CoreParams core;
};

const std::vector<unsigned> coreCounts{1, 2, 4, 8, 16, 32};

/** Print one (core, memory) block and return its designs, one per
 * entry of coreCounts. */
std::vector<ServerDesign>
block(bench::PointContext &ctx, const CoreChoice &choice,
      StackMemory memory)
{
    DesignExplorer explorer;

    StackConfig stack;
    stack.core = choice.core;
    stack.memory = memory;
    // Mercury foregoes the L2 (Sec. 4.1.3); Iridium requires it
    // (Sec. 4.2.1).
    stack.withL2 = memory == StackMemory::Flash3D;

    const PerCorePerf perf = measurePerCorePerf(stack);

    ctx.printf("%s, %s\n", choice.label,
               memory == StackMemory::Dram3D ? "Mercury (3D DRAM)"
                                             : "Iridium (3D Flash)");
    ctx.printf("  %-18s", "Cores per stack");
    for (unsigned n : coreCounts)
        ctx.printf(" %9u", n);
    ctx.printf("\n");
    ctx.printf("%s\n", bench::ruleString(80).c_str());

    ctx.printf("  %-18s", "Stacks");
    std::vector<ServerDesign> designs;
    for (unsigned n : coreCounts) {
        stack.coresPerStack = n;
        designs.push_back(explorer.solve(stack, perf));
        ctx.printf(" %9u", designs.back().stacks);
    }
    ctx.printf("\n  %-18s", "Area (cm^2)");
    for (const auto &d : designs)
        ctx.printf(" %9.0f", d.areaCm2);
    ctx.printf("\n  %-18s", "Power (W)");
    for (const auto &d : designs)
        ctx.printf(" %9.0f", d.powerAtMaxBwW);
    ctx.printf("\n  %-18s", "Density (GB)");
    for (const auto &d : designs)
        ctx.printf(" %9.0f", d.densityGB);
    ctx.printf("\n  %-18s", "Max BW (GB/s)");
    for (const auto &d : designs)
        ctx.printf(" %9.1f", d.maxBwGBs);
    ctx.printf("\n\n");
    return designs;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Session session(argc, argv, "table3_max_configs");
    bench::banner("Table 3: Power and area comparison for 1.5U "
                  "maximum configurations");

    const std::vector<CoreChoice> choices = {
        {"A15 @1.5GHz", "a15_1500mhz", cpu::cortexA15Params(1.5)},
        {"A15 @1GHz", "a15_1000mhz", cpu::cortexA15Params(1.0)},
        {"A7 @1GHz", "a7_1000mhz", cpu::cortexA7Params()},
    };
    const std::vector<StackMemory> memories = {StackMemory::Dram3D,
                                               StackMemory::Flash3D};

    // designs[memory][core], filled by the sweep points.
    std::vector<std::vector<std::vector<ServerDesign>>> designs(
        memories.size(),
        std::vector<std::vector<ServerDesign>>(choices.size()));
    bench::ParallelSweep sweep(session);
    for (std::size_t mi = 0; mi < memories.size(); ++mi) {
        for (std::size_t ci = 0; ci < choices.size(); ++ci) {
            sweep.point([&, mi, ci](bench::PointContext &ctx) {
                designs[mi][ci] = block(ctx, choices[ci], memories[mi]);
            });
        }
    }
    sweep.run();

    bench::ResultsFragment published;
    for (std::size_t mi = 0; mi < memories.size(); ++mi) {
        const std::string family =
            memories[mi] == StackMemory::Dram3D ? "mercury." : "iridium.";
        for (std::size_t ci = 0; ci < choices.size(); ++ci) {
            for (std::size_t ni = 0; ni < coreCounts.size(); ++ni) {
                const ServerDesign &d = designs[mi][ci][ni];
                const std::string row = family + choices[ci].key +
                                        ".cores" +
                                        std::to_string(coreCounts[ni]);
                published.add(row + ".stacks", d.stacks);
                published.add(row + ".area_cm2", d.areaCm2);
                published.add(row + ".power_w", d.powerAtMaxBwW);
                published.add(row + ".density_gb", d.densityGB);
                published.add(row + ".max_bw_gbs", d.maxBwGBs);
            }
        }
    }
    session.appendStatsFragment(published.text());
    return 0;
}
