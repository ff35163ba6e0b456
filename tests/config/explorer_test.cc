/**
 * @file
 * Tests for the server design explorer (Tables 3-4 machinery).
 */

#include <gtest/gtest.h>

#include "config/explorer.hh"
#include "config/perf_oracle.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury;
using namespace mercury::config;
using namespace mercury::physical;

/** Paper-anchored per-core numbers for an A7 on a Mercury stack. */
PerCorePerf
a7Perf()
{
    PerCorePerf perf;
    perf.tps64 = 11000.0;
    perf.goodput64GBs = 11000.0 * 64 / 1e9;
    perf.maxBwGBs = 0.198;
    return perf;
}

PerCorePerf
a15Perf(double freq)
{
    PerCorePerf perf;
    perf.tps64 = freq > 1.25 ? 27000.0 : 26000.0;
    perf.goodput64GBs = perf.tps64 * 64 / 1e9;
    perf.maxBwGBs = 0.28;
    return perf;
}

StackConfig
a7Stack(unsigned cores, StackMemory memory = StackMemory::Dram3D)
{
    StackConfig stack;
    stack.core = cpu::cortexA7Params();
    stack.coresPerStack = cores;
    stack.memory = memory;
    return stack;
}

TEST(DesignExplorer, A7MercuryLowCoreCountsFitAll96Stacks)
{
    DesignExplorer explorer;
    for (unsigned cores : {1u, 2u, 4u, 8u, 16u}) {
        const ServerDesign design =
            explorer.solve(a7Stack(cores), a7Perf());
        EXPECT_EQ(design.stacks, 96u) << cores << " cores";
        EXPECT_DOUBLE_EQ(design.densityGB, 384.0);
        EXPECT_NEAR(design.areaCm2, 635.0, 1.0);
    }
}

TEST(DesignExplorer, A7Mercury32StaysNear96)
{
    // Paper Table 3/4: 93 stacks; our power solve gives within a few.
    DesignExplorer explorer;
    const ServerDesign design =
        explorer.solve(a7Stack(32), a7Perf());
    EXPECT_GE(design.stacks, 75u);
    EXPECT_LE(design.stacks, 96u);
}

TEST(DesignExplorer, A15PowerLimitsStackCount)
{
    // Table 3: A15 @1.5 GHz at 8 cores/stack drops to ~50 stacks.
    DesignExplorer explorer;
    StackConfig stack;
    stack.core = cpu::cortexA15Params(1.5);
    stack.coresPerStack = 8;
    const ServerDesign design = explorer.solve(stack, a15Perf(1.5));
    EXPECT_LT(design.stacks, 70u);
    EXPECT_GT(design.stacks, 35u);

    stack.coresPerStack = 32;
    const ServerDesign dense = explorer.solve(stack, a15Perf(1.5));
    EXPECT_LT(dense.stacks, 20u);
}

TEST(DesignExplorer, PowerNeverExceedsSupply)
{
    DesignExplorer explorer;
    for (unsigned cores : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (double freq : {1.0, 1.5}) {
            StackConfig stack;
            stack.core = cpu::cortexA15Params(freq);
            stack.coresPerStack = cores;
            const ServerDesign d = explorer.solve(stack,
                                                  a15Perf(freq));
            EXPECT_LE(d.powerAtMaxBwW, 750.0 + 1e-9);
            EXPECT_LE(d.powerAt64BW, 750.0 + 1e-9);
        }
    }
}

TEST(DesignExplorer, Table4Mercury8RowShape)
{
    // Paper: 96 stacks, 768 cores, 384 GB, 309 W, 8.44 MTPS.
    DesignExplorer explorer;
    const ServerDesign d = explorer.solve(a7Stack(8), a7Perf());
    EXPECT_EQ(d.stacks, 96u);
    EXPECT_EQ(d.cores, 768u);
    EXPECT_DOUBLE_EQ(d.densityGB, 384.0);
    EXPECT_NEAR(d.tps64 / 1e6, 8.45, 0.1);
    EXPECT_NEAR(d.powerAt64BW, 309.0, 15.0);
    EXPECT_NEAR(d.tpsPerWatt() / 1000.0, 27.3, 2.0);
}

TEST(DesignExplorer, IridiumDensityIsMuchHigher)
{
    DesignExplorer explorer;
    PerCorePerf ir_perf;
    ir_perf.tps64 = 5400.0;
    ir_perf.goodput64GBs = 5400.0 * 64 / 1e9;
    ir_perf.maxBwGBs = 0.09;
    const ServerDesign iridium = explorer.solve(
        a7Stack(8, StackMemory::Flash3D), ir_perf);
    const ServerDesign mercury =
        explorer.solve(a7Stack(8), a7Perf());
    EXPECT_NEAR(iridium.densityGB / mercury.densityGB, 4.95, 0.05);
    EXPECT_NEAR(iridium.densityGB, 1901.0, 2.0);
}

TEST(DesignExplorer, MoreCoresMoreThroughputUntilPowerBinds)
{
    DesignExplorer explorer;
    double last_tps = 0.0;
    for (unsigned cores : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const ServerDesign d = explorer.solve(a7Stack(cores),
                                              a7Perf());
        EXPECT_GT(d.tps64, last_tps) << cores;
        last_tps = d.tps64;
    }
}

TEST(DesignExplorer, RejectsMissingPerf)
{
    mercury::contract::ScopedContractThrow guard;
    DesignExplorer explorer;
    EXPECT_THROW(explorer.solve(a7Stack(8), PerCorePerf{}),
                 mercury::contract::ContractViolation);
}

TEST(PerfOracle, MeasuresSaneA7Numbers)
{
    const PerCorePerf perf = measurePerCorePerf(a7Stack(8));
    EXPECT_GT(perf.tps64, 8000.0);
    EXPECT_LT(perf.tps64, 14000.0);
    EXPECT_GT(perf.maxBwGBs, 0.08);
    EXPECT_LT(perf.maxBwGBs, 0.4);
}

TEST(PerfOracle, CachesResults)
{
    const PerCorePerf first = measurePerCorePerf(a7Stack(8));
    const PerCorePerf second = measurePerCorePerf(a7Stack(8));
    EXPECT_DOUBLE_EQ(first.tps64, second.tps64);
}

TEST(PerfOracle, EndToEndDesignFromSimulation)
{
    // The full pipeline: simulate per-core perf, then solve the
    // server design; Mercury-8 must land near the paper's row.
    const PerCorePerf perf = measurePerCorePerf(a7Stack(8));
    DesignExplorer explorer;
    const ServerDesign d = explorer.solve(a7Stack(8), perf);
    EXPECT_EQ(d.stacks, 96u);
    EXPECT_GT(d.tps64 / 1e6, 6.0);
    EXPECT_LT(d.tps64 / 1e6, 11.0);
}

} // anonymous namespace
