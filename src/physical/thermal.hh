/**
 * @file
 * Thermal feasibility model (paper Sec. 6.5).
 *
 * A Mercury/Iridium box spreads its ~600 W across 96 packages
 * instead of concentrating it in a few sockets, so each 21 mm BGA
 * dissipates only a few watts -- within passive (heatsink-less)
 * cooling under the chassis' forced airflow. This model checks a
 * design point: per-stack TDP, junction temperature under a simple
 * junction-to-ambient resistance, and board-level power density.
 */

#ifndef MERCURY_PHYSICAL_THERMAL_HH
#define MERCURY_PHYSICAL_THERMAL_HH

namespace mercury::physical
{

struct ThermalParams
{
    /** Chassis inlet air temperature (deg C). */
    static constexpr double inletTempC = 25.0;
    /** Maximum junction temperature for the DRAM layers (DRAM
     * retention limits the stack, not the logic die). */
    static constexpr double maxJunctionC = 85.0;
    /** Junction-to-ambient thermal resistance of a 21 mm BGA under
     * 1.5U forced airflow, no heatsink (deg C per W). */
    static constexpr double thetaJaCPerW = 7.0;
    /** Air temperature rise budget front-to-back of the chassis. */
    static constexpr double airRiseBudgetC = 15.0;
    /** Airflow heat-removal capacity of a 1.5U fan wall (W). */
    double chassisAirflowW = 900.0;
};

struct ThermalReport
{
    double perStackW = 0.0;
    double junctionC = 0.0;
    /** True if every stack stays under maxJunctionC without a
     * heatsink. */
    bool passiveOk = false;
    /** True if the fan wall can remove the box's heat within the
     * air-rise budget. */
    bool airflowOk = false;

    bool ok() const { return passiveOk && airflowOk; }
};

/**
 * Evaluate a design point.
 *
 * @param stacks stacks in the box
 * @param stack_components_w total stack-component power (the
 *        explorer's pre-margin figure)
 * @param wall_power_w box wall power (for the airflow check)
 */
ThermalReport checkThermal(unsigned stacks,
                           double stack_components_w,
                           double wall_power_w,
                           const ThermalParams &params = {});

} // namespace mercury::physical

#endif // MERCURY_PHYSICAL_THERMAL_HH
