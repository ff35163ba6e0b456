/**
 * @file
 * Tests for the multi-core stack simulation (linear-scaling check).
 */

#include <gtest/gtest.h>

#include "server/stack_sim.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

StackSimParams
mercuryStack(unsigned cores, std::uint32_t size = 64)
{
    StackSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = false;
    p.node.memory = MemoryKind::StackedDram;
    p.cores = cores;
    p.valueBytes = size;
    p.requestsPerCore = 16;
    return p;
}

TEST(StackSimulation, SingleCoreMatchesReference)
{
    StackSimulation sim(mercuryStack(1));
    const StackSimResult r = sim.run();
    EXPECT_NEAR(r.scalingEfficiency, 1.0, 0.02);
    EXPECT_NEAR(r.aggregateTps, r.perCoreTps, 1.0);
}

TEST(StackSimulation, SmallGetsScaleNearlyLinearly)
{
    // The paper's Sec. 5.3 assumption: per-core TPS multiplies out
    // to the stack because instances share nothing but ports.
    for (unsigned cores : {2u, 8u, 16u}) {
        StackSimulation sim(mercuryStack(cores));
        const StackSimResult r = sim.run();
        EXPECT_GT(r.scalingEfficiency, 0.95) << cores << " cores";
        EXPECT_LE(r.scalingEfficiency, 1.05) << cores << " cores";
    }
}

TEST(StackSimulation, LargeRequestsSaturateTheNic)
{
    StackSimulation sim(mercuryStack(16, 65536));
    const StackSimResult r = sim.run();
    EXPECT_LT(r.scalingEfficiency, 0.8)
        << "16 cores x 64KB must exceed one 10GbE port";
    EXPECT_GT(r.nicUtilization, 0.9);
}

TEST(StackSimulation, AggregateGrowsWithCores)
{
    StackSimulation two(mercuryStack(2));
    StackSimulation eight(mercuryStack(8));
    EXPECT_GT(eight.run().aggregateTps,
              3.0 * two.run().aggregateTps);
}

TEST(StackSimulation, IridiumStackScalesAcrossChannels)
{
    StackSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = true;
    p.node.memory = MemoryKind::Flash;
    p.cores = 8;
    p.valueBytes = 64;
    p.requestsPerCore = 12;
    StackSimulation sim(p);
    const StackSimResult r = sim.run();
    EXPECT_GT(r.scalingEfficiency, 0.85)
        << "independent flash channels must keep cores independent";
}

TEST(StackSimulation, MixedPutsStillScale)
{
    StackSimParams p = mercuryStack(8);
    p.getFraction = 0.7;
    StackSimulation sim(p);
    const StackSimResult r = sim.run();
    EXPECT_GT(r.scalingEfficiency, 0.9);
}

} // anonymous namespace
