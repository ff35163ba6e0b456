/**
 * @file
 * Regenerates paper Figure 6: transactions per second for an
 * Iridium-1 stack across CPU configurations and flash read
 * latencies (10/20 us; writes fixed at 200 us), for GET and PUT
 * requests from 64 B to 1 MB.
 *
 * Each (panel, latency) pair is an independent ParallelSweep point;
 * `--jobs N` output stays byte-identical to the serial run.
 *
 * --stats-json publishes every printed cell as
 * results.<panel>.<size>.<latency>us.<get|put>_tps, added in point
 * order.
 */

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "parallel_sweep.hh"
#include "server/server_model.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

struct Cell
{
    double getTps = 0;
    double putTps = 0;
};

struct PanelSpec
{
    const char *tag;
    const char *title;
    cpu::CoreParams core;
    bool withL2;
};

void
printPanel(const PanelSpec &spec,
           const std::vector<std::uint32_t> &sizes,
           const std::vector<std::vector<Cell>> &cells)
{
    bench::banner(spec.title);

    std::printf("%-8s  %9s %9s  %9s %9s   (TPS)\n", "Size",
                "10us-GET", "10us-PUT", "20us-GET", "20us-PUT");
    bench::rule(60);

    for (std::size_t si = 0; si < sizes.size(); ++si) {
        std::printf("%-8s", bench::sizeLabel(sizes[si]).c_str());
        for (std::size_t li = 0; li < cells.size(); ++li) {
            const Cell &cell = cells[li][si];
            std::printf("  %9.0f %9.0f", cell.getTps, cell.putTps);
        }
        std::printf("\n");
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Session session(argc, argv, "fig6");

    const std::vector<Tick> latencies{10 * tickUs, 20 * tickUs};
    const std::vector<std::uint32_t> sizes = session.sizes();

    const std::vector<PanelSpec> panels = {
        {"fig6a", "Figure 6a: Iridium-1, A15 @1GHz with a 2MB L2",
         cpu::cortexA15Params(1.0), true},
        {"fig6b", "Figure 6b: Iridium-1, A15 @1GHz with no L2",
         cpu::cortexA15Params(1.0), false},
        {"fig6c", "Figure 6c: Iridium-1, A7 with a 2MB L2",
         cpu::cortexA7Params(), true},
        {"fig6d", "Figure 6d: Iridium-1, A7 with no L2",
         cpu::cortexA7Params(), false},
    };

    // cells[panel][latency][size], filled by the sweep points.
    std::vector<std::vector<std::vector<Cell>>> cells(
        panels.size(),
        std::vector<std::vector<Cell>>(
            latencies.size(), std::vector<Cell>(sizes.size())));

    bench::ParallelSweep sweep(session);
    for (std::size_t pi = 0; pi < panels.size(); ++pi) {
        for (std::size_t li = 0; li < latencies.size(); ++li) {
            std::function<void()> after;
            if (li + 1 == latencies.size()) {
                after = [&, pi] {
                    printPanel(panels[pi], sizes, cells[pi]);
                };
            }
            sweep.point(
                [&, pi, li](bench::PointContext &ctx) {
                    const PanelSpec &spec = panels[pi];
                    ServerModelParams params;
                    params.core = spec.core;
                    params.withL2 = spec.withL2;
                    params.memory = MemoryKind::Flash;
                    params.flashReadLatency = latencies[li];
                    params.storeMemLimit = 224 * miB;
                    params.name =
                        std::string(spec.tag) + "." +
                        std::to_string(latencies[li] / tickUs) +
                        "us";
                    params.statsParent = ctx.statsParent();
                    params.tracer = ctx.tracer();
                    ServerModel model(params);

                    for (std::size_t si = 0; si < sizes.size();
                         ++si) {
                        cells[pi][li][si].getTps =
                            model.measureGets(sizes[si]).avgTps;
                        cells[pi][li][si].putTps =
                            model.measurePuts(sizes[si]).avgTps;
                    }
                    ctx.capture();  // the point's model dies here
                },
                std::move(after));
        }
    }
    sweep.run();

    // The cells are complete once run() returns; publish them in
    // point order, which does not depend on --jobs.
    bench::ResultsFragment published;
    for (std::size_t pi = 0; pi < panels.size(); ++pi) {
        for (std::size_t li = 0; li < latencies.size(); ++li) {
            for (std::size_t si = 0; si < sizes.size(); ++si) {
                const std::string cell = detail::concat(
                    panels[pi].tag, ".", bench::sizeLabel(sizes[si]),
                    ".", latencies[li] / tickUs, "us");
                published.add(cell + ".get_tps",
                              cells[pi][li][si].getTps);
                published.add(cell + ".put_tps",
                              cells[pi][li][si].putTps);
            }
        }
    }
    session.appendStatsFragment(published.text());
    return 0;
}
