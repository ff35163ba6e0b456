/**
 * @file
 * Validation: the paper's linear-scaling assumption (Sec. 5.3).
 *
 * The paper measures one core and multiplies. Here n cores share a
 * real stack -- DRAM ports / flash channels and the single 10GbE
 * port -- and we report how close the aggregate comes to n x
 * single-core. At 64 B the assumption holds almost exactly; at
 * large request sizes the stack's one NIC port becomes the wall the
 * paper's memory-side bandwidth numbers never see.
 *
 * Each (sweep, core count) stack is an independent ParallelSweep
 * point; rows print in order from the points' `after` callbacks, so
 * `--jobs N` output is byte-identical to `--jobs 1`. --stats-json
 * publishes each row's scaling efficiency as
 * results.<family>_<size>.cores<n>.efficiency.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "parallel_sweep.hh"
#include "server/stack_sim.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

/** One table: a memory technology at one request size. */
struct SweepSpec
{
    MemoryKind memory;
    std::uint32_t size;
};

void
printHeader(const SweepSpec &spec)
{
    std::printf("%s, %s requests\n",
                spec.memory == MemoryKind::StackedDram ? "Mercury"
                                                       : "Iridium",
                bench::sizeLabel(spec.size).c_str());
    std::printf("  %-6s %14s %14s %12s %10s\n", "Cores",
                "aggregate TPS", "linear pred.", "efficiency",
                "NIC util");
    bench::rule(64);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "validate_linear_scaling");
    bench::banner("Validation: linear scaling of per-core TPS to "
                  "the stack level (Sec. 5.3)");

    const std::vector<SweepSpec> sweeps = {
        {MemoryKind::StackedDram, 64},
        {MemoryKind::StackedDram, 65536},
        {MemoryKind::Flash, 64},
    };
    const std::vector<unsigned> core_counts = {1, 2, 4, 8, 16};

    // results[sweep][cores], filled by the sweep points.
    std::vector<std::vector<StackSimResult>> results(
        sweeps.size(), std::vector<StackSimResult>(core_counts.size()));

    bench::ParallelSweep sweep(session);
    for (std::size_t si = 0; si < sweeps.size(); ++si) {
        for (std::size_t ci = 0; ci < core_counts.size(); ++ci) {
            sweep.point(
                [&, si, ci](bench::PointContext &) {
                    StackSimParams params;
                    params.node.core = cpu::cortexA7Params();
                    params.node.memory = sweeps[si].memory;
                    params.node.withL2 =
                        sweeps[si].memory == MemoryKind::Flash;
                    params.cores = core_counts[ci];
                    params.valueBytes = sweeps[si].size;
                    StackSimulation sim(params);
                    results[si][ci] = sim.run();
                },
                [&, si, ci] {
                    if (ci == 0)
                        printHeader(sweeps[si]);
                    const StackSimResult &r = results[si][ci];
                    std::printf("  %-6u %14.0f %14.0f %11.2f%% %9.2f%%\n",
                                core_counts[ci], r.aggregateTps,
                                r.linearPredictionTps,
                                r.scalingEfficiency * 100,
                                r.nicUtilization * 100);
                    if (ci + 1 == core_counts.size())
                        std::printf("\n");
                });
        }
    }
    sweep.run();

    bench::ResultsFragment published;
    for (std::size_t si = 0; si < sweeps.size(); ++si) {
        const std::string table =
            (sweeps[si].memory == MemoryKind::StackedDram ? "mercury_"
                                                          : "iridium_") +
            bench::sizeLabel(sweeps[si].size);
        for (std::size_t ci = 0; ci < core_counts.size(); ++ci) {
            published.add(table + ".cores" +
                              std::to_string(core_counts[ci]) +
                              ".efficiency",
                          results[si][ci].scalingEfficiency);
        }
    }
    session.appendStatsFragment(published.text());

    std::printf("At 64 B the paper's linear scaling holds within a "
                "few percent: separate Memcached instances share "
                "only ports,\nand two cores per port are free "
                "(Sec. 4.1.2). At 64 KB the single 10GbE port "
                "saturates -- the memory-side\n\"Max BW\" numbers "
                "in Table 3 are not deliverable through one NIC.\n");
    return 0;
}
