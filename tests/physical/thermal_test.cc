/**
 * @file
 * Tests for the thermal feasibility model (Sec. 6.5).
 */

#include <gtest/gtest.h>

#include "physical/thermal.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury::physical;

TEST(Thermal, Mercury32IsPassivelyCoolable)
{
    // Sec. 6.5: 597 W spread across 96 stacks -> ~6.2 W per stack,
    // within passive cooling with chassis airflow.
    const ThermalReport r = checkThermal(96, 96 * 6.2, 597.0);
    EXPECT_NEAR(r.perStackW, 6.2, 0.01);
    EXPECT_LT(r.junctionC, 87.0);
    EXPECT_TRUE(r.passiveOk);
    EXPECT_TRUE(r.airflowOk);
    EXPECT_TRUE(r.ok());
}

TEST(Thermal, ConcentratedPowerNeedsHeatsinks)
{
    // The same 600 W in two conventional sockets is far beyond
    // passive limits -- the contrast the paper draws.
    const ThermalReport r = checkThermal(2, 600.0, 750.0);
    EXPECT_GT(r.perStackW, 100.0);
    EXPECT_FALSE(r.passiveOk);
}

TEST(Thermal, JunctionScalesWithPerStackPower)
{
    const ThermalReport low = checkThermal(96, 96 * 2.0, 400.0);
    const ThermalReport high = checkThermal(96, 96 * 6.0, 700.0);
    EXPECT_LT(low.junctionC, high.junctionC);
    EXPECT_NEAR(high.junctionC - low.junctionC, 4.0 * 7.0, 1e-9);
}

TEST(Thermal, AirflowLimitBinds)
{
    ThermalParams params;
    params.chassisAirflowW = 500.0;
    const ThermalReport r = checkThermal(96, 96 * 4.0, 700.0,
                                         params);
    EXPECT_FALSE(r.airflowOk);
    EXPECT_FALSE(r.ok());
}

TEST(Thermal, DramRetentionLimitIsTheCeiling)
{
    // 85C is the DRAM retention knee; a stack just under it passes,
    // just over fails.
    ThermalParams params;
    // junction = 40 + p * 7.0 -> p ~ 6.43 sits exactly at 85.
    const ThermalReport pass = checkThermal(1, 6.3, 100.0, params);
    EXPECT_TRUE(pass.passiveOk);
    const ThermalReport fail = checkThermal(1, 6.6, 100.0, params);
    EXPECT_FALSE(fail.passiveOk);
}

TEST(Thermal, ZeroStacksPanics)
{
    mercury::contract::ScopedContractThrow guard;
    EXPECT_THROW(checkThermal(0, 100.0, 100.0),
                 mercury::contract::ContractViolation);
}

} // anonymous namespace
