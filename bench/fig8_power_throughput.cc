/**
 * @file
 * Regenerates paper Figure 8: power vs throughput for Mercury-n and
 * Iridium-n stacks servicing 64 B GET requests.
 *
 * Each (panel, core) pair is an independent ParallelSweep point;
 * `--jobs N` output stays byte-identical to the serial run.
 * --stats-json publishes every printed row as
 * results.<mercury|iridium>.<core>.cores<n>.{power_w,tps_64b}.
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

struct PanelSpec
{
    const char *title;
    StackMemory memory;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Session session(argc, argv, "fig8_power_throughput");

    const CoreChoice choices[] = {
        {"A15 @1.5GHz", "a15_1500mhz", cpu::cortexA15Params(1.5)},
        {"A15 @1GHz", "a15_1000mhz", cpu::cortexA15Params(1.0)},
        {"A7", "a7_1000mhz", cpu::cortexA7Params()},
    };
    const unsigned core_counts[] = {1, 2, 4, 8, 16, 32};
    const PanelSpec panels[] = {
        {"Figure 8a: Mercury power vs TPS (64 B GETs)",
         StackMemory::Dram3D},
        {"Figure 8b: Iridium power vs TPS (64 B GETs)",
         StackMemory::Flash3D},
    };

    // designs[panel][core], filled by the sweep points.
    std::vector<std::vector<std::vector<ServerDesign>>> designs(
        std::size(panels),
        std::vector<std::vector<ServerDesign>>(std::size(choices)));
    bench::ParallelSweep sweep(session);
    for (std::size_t pi = 0; pi < std::size(panels); ++pi) {
        for (std::size_t ci = 0; ci < std::size(choices); ++ci) {
            sweep.point([&, pi, ci](bench::PointContext &ctx) {
                const PanelSpec &panel = panels[pi];
                if (ci == 0) {
                    ctx.printf("\n=== %s ===\n\n", panel.title);
                    ctx.printf("%-12s %-12s %12s %14s %12s\n",
                               "Core", "Config", "Power (W)",
                               "TPS@64B (M)", "KTPS/W");
                    ctx.printf("%s\n",
                               bench::ruleString(68).c_str());
                }
                DesignExplorer explorer;
                const char *family =
                    panel.memory == StackMemory::Dram3D ? "Mercury"
                                                        : "Iridium";
                StackConfig stack;
                stack.core = choices[ci].core;
                stack.memory = panel.memory;
                stack.withL2 = panel.memory == StackMemory::Flash3D;
                const PerCorePerf perf = measurePerCorePerf(stack);
                for (unsigned n : core_counts) {
                    stack.coresPerStack = n;
                    const ServerDesign d = explorer.solve(stack,
                                                          perf);
                    ctx.printf("%-12s %s-%-8u %12.0f %14.2f %12.2f\n",
                               choices[ci].label, family, n,
                               d.powerAt64BW, d.tps64 / 1e6,
                               d.tpsPerWatt() / 1e3);
                    designs[pi][ci].push_back(d);
                }
            });
        }
    }
    sweep.run();

    bench::ResultsFragment published;
    for (std::size_t pi = 0; pi < std::size(panels); ++pi) {
        const std::string family =
            panels[pi].memory == StackMemory::Dram3D ? "mercury."
                                                     : "iridium.";
        for (std::size_t ci = 0; ci < std::size(choices); ++ci) {
            for (std::size_t ni = 0; ni < std::size(core_counts); ++ni) {
                const ServerDesign &d = designs[pi][ci][ni];
                const std::string row =
                    family + choices[ci].key + ".cores" +
                    std::to_string(core_counts[ni]);
                published.add(row + ".power_w", d.powerAt64BW);
                published.add(row + ".tps_64b", d.tps64);
            }
        }
    }
    session.appendStatsFragment(published.text());
    return 0;
}
