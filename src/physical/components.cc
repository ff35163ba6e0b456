#include "physical/components.hh"

#include "sim/contract.hh"

namespace mercury::physical
{

double
ComponentCatalog::corePowerW(const cpu::CoreParams &core) const
{
    switch (core.type) {
      case cpu::CoreType::CortexA7:
        return a7PowerW;
      case cpu::CoreType::CortexA15:
        return core.freqGHz > 1.25 ? a15PowerW15GHz : a15PowerW1GHz;
    }
    MERCURY_UNREACHABLE("unknown core type");
}

double
ComponentCatalog::coreAreaMm2(const cpu::CoreParams &core) const
{
    switch (core.type) {
      case cpu::CoreType::CortexA7:
        return a7AreaMm2;
      case cpu::CoreType::CortexA15:
        return a15AreaMm2;
    }
    MERCURY_UNREACHABLE("unknown core type");
}

const ComponentCatalog &
defaultCatalog()
{
    static const ComponentCatalog catalog;
    return catalog;
}

std::vector<MemoryTechRow>
memoryTechCatalog()
{
    return {
        {"DDR3-1333", 10.7, 2.0, false},
        {"DDR4-2667", 21.3, 2.0, false},
        {"LPDDR3 (30nm)", 6.4, 0.5, false},
        {"HMC I (3D-Stack)", 128.0, 0.5, true},
        {"Wide I/O (3D-stack, 50nm)", 12.8, 0.5, true},
        {"Tezzaron Octopus (3D-Stack)", 50.0, 0.5, true},
        {"Future Tezzaron (3D-stack)", 100.0, 4.0, true},
    };
}

} // namespace mercury::physical
