#include "physical/chassis.hh"

#include <cmath>

#include "sim/contract.hh"

namespace mercury::physical
{

unsigned
ChassisConstraints::maxStacksByArea() const
{
    // A packaged stack is a 21mm x 21mm BGA (441 mm^2 = 4.41 cm^2)
    // plus half of a dual-PHY chip of the same size.
    const double footprint_cm2 = 4.41 * 1.5;
    const double usable = boardAreaCm2 * usableBoardFraction;
    return static_cast<unsigned>(usable / footprint_cm2);
}

double
ChassisConstraints::boardAreaFor(unsigned stacks) const
{
    return static_cast<double>(stacks) * 4.41 * 1.5;
}

const ChassisConstraints &
defaultChassis()
{
    static const ChassisConstraints chassis;
    return chassis;
}

StackModel::StackModel(const StackConfig &config,
                       const ComponentCatalog &catalog)
    : config_(config), catalog_(catalog)
{
    MERCURY_EXPECTS(config_.coresPerStack >= 1, "stack needs cores");
}

double
StackModel::powerW(double mem_bandwidth_gbs) const
{
    const double cores = config_.coresPerStack *
                         catalog_.corePowerW(config_.core);
    const double mem_rate = config_.memory == StackMemory::Dram3D
                                ? catalog_.dramPowerPerGBs
                                : catalog_.flashPowerPerGBs;
    return cores + catalog_.nicMacPowerW + catalog_.nicPhyPowerW +
           config_.nicCacheMB * catalog_.nicCacheSramPowerWPerMB +
           mem_rate * mem_bandwidth_gbs;
}

double
StackModel::densityGB() const
{
    return config_.memory == StackMemory::Dram3D
               ? catalog_.dramCapacityGB
               : catalog_.flashCapacityGB;
}

double
StackModel::portBandwidthCapGBs(double per_core_max_gbs) const
{
    // 16 independent ports (DRAM) / controllers (flash); past 16
    // cores, two cores share a port (Sec. 4.1.2, 5.3).
    const double port_peak = config_.memory == StackMemory::Dram3D
                                 ? 6.25
                                 : 0.8;  // one channel's transfer rate
    const unsigned ports =
        std::min<unsigned>(config_.coresPerStack, 16);
    const double demand = config_.coresPerStack * per_core_max_gbs;
    return std::min(demand, ports * port_peak);
}

bool
StackModel::fitsLogicDie() const
{
    // The logic die matches the DRAM die footprint: 15.5mm x 18mm =
    // 279 mm^2, shared with DRAM peripheral logic and the NIC MAC.
    const double logic_budget_mm2 = 279.0 * 0.5;
    const double used =
        config_.coresPerStack * catalog_.coreAreaMm2(config_.core) +
        catalog_.nicMacAreaMm2 +
        config_.nicCacheMB * catalog_.nicCacheSramAreaMm2PerMB;
    return used <= logic_budget_mm2;
}

} // namespace mercury::physical
