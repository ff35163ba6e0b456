#include "config/explorer.hh"

#include <algorithm>
#include <cmath>

#include "sim/contract.hh"

namespace mercury::config
{

DesignExplorer::DesignExplorer(
    const physical::ChassisConstraints &chassis,
    const physical::ComponentCatalog &catalog,
    double dram_background_w)
    : chassis_(chassis), catalog_(catalog),
      dramBackgroundW_(dram_background_w)
{}

ServerDesign
DesignExplorer::solve(const physical::StackConfig &stack,
                      const PerCorePerf &perf) const
{
    MERCURY_EXPECTS(perf.tps64 > 0.0 && perf.maxBwGBs > 0.0,
                    "per-core performance inputs required");

    physical::StackModel model(stack, catalog_);
    MERCURY_EXPECTS(model.fitsLogicDie(),
                    "stack configuration exceeds the logic die");

    ServerDesign design;
    design.stack = stack;
    design.perf = perf;

    const double per_stack_max_bw =
        model.portBandwidthCapGBs(perf.maxBwGBs);
    const bool is_dram =
        stack.memory == physical::StackMemory::Dram3D;
    const double background = is_dram ? dramBackgroundW_ : 0.0;

    const double per_stack_power_max =
        model.powerW(per_stack_max_bw) + background;

    const unsigned by_power = static_cast<unsigned>(
        chassis_.stackPowerBudgetW() / per_stack_power_max);
    const unsigned by_area = chassis_.maxStacksByArea();
    const unsigned by_ports = chassis_.maxEthernetPorts;

    design.stacks = std::min({by_power, by_area, by_ports});
    design.cores = design.stacks * stack.coresPerStack;
    design.densityGB = design.stacks * model.densityGB();
    design.areaCm2 = chassis_.boardAreaFor(design.stacks);

    design.maxBwGBs = design.stacks * per_stack_max_bw;
    design.powerAtMaxBwW = std::min(
        chassis_.supplyW,
        chassis_.wallPowerW(design.stacks * per_stack_power_max));

    design.tps64 = static_cast<double>(design.cores) * perf.tps64;
    design.bw64GBs =
        static_cast<double>(design.cores) * perf.goodput64GBs;
    const double per_stack_bw_64 =
        stack.coresPerStack * perf.goodput64GBs;
    // At the 64 B operating point the DRAM mostly sits in power-down
    // between scattered accesses; only the dynamic draw is charged
    // (this matches the paper's Table 4 accounting).
    design.powerAt64BW = chassis_.wallPowerW(
        design.stacks * model.powerW(per_stack_bw_64));
    return design;
}

} // namespace mercury::config
