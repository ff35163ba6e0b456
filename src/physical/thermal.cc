#include "physical/thermal.hh"

#include "sim/contract.hh"

namespace mercury::physical
{

ThermalReport
checkThermal(unsigned stacks, double stack_components_w,
             double wall_power_w, const ThermalParams &params)
{
    MERCURY_EXPECTS(stacks > 0, "thermal check needs stacks");

    ThermalReport report;
    report.perStackW = stack_components_w / stacks;

    // Worst-case stack sits at the back of the board, seeing air
    // already warmed by the rest of the box.
    const double local_ambient =
        params.inletTempC + params.airRiseBudgetC;
    report.junctionC =
        local_ambient + report.perStackW * params.thetaJaCPerW;
    report.passiveOk = report.junctionC <= params.maxJunctionC;

    report.airflowOk = wall_power_w <= params.chassisAirflowW;
    return report;
}

} // namespace mercury::physical
