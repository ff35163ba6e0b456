/**
 * @file
 * Tests for the open-loop load simulation.
 */

#include <gtest/gtest.h>

#include "server/load_sim.hh"

namespace
{

using namespace mercury;
using namespace mercury::server;

LoadSimParams
mercuryLoad(std::uint32_t size = 64)
{
    LoadSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = false;
    p.node.memory = MemoryKind::StackedDram;
    p.valueBytes = size;
    p.requests = 300;
    return p;
}

TEST(LoadSimulation, CapacityMatchesClosedLoop)
{
    LoadSimulation sim(mercuryLoad());
    EXPECT_GT(sim.capacity(), 8000.0);
    EXPECT_LT(sim.capacity(), 14000.0);
}

TEST(LoadSimulation, LightLoadLatencyNearUnloadedRtt)
{
    LoadSimulation sim(mercuryLoad());
    const LoadPoint p = sim.run(0.2 * sim.capacity());
    // Unloaded RTT is ~92 us; at 20% load queueing adds little.
    EXPECT_LT(p.avgLatencyUs, 180.0);
    EXPECT_DOUBLE_EQ(p.subMsFraction, 1.0);
}

TEST(LoadSimulation, LatencyRisesMonotonicallyWithLoad)
{
    LoadSimulation sim(mercuryLoad());
    const double cap = sim.capacity();
    const LoadPoint points[] = {sim.run(0.3 * cap), sim.run(0.6 * cap),
                                sim.run(0.9 * cap)};
    EXPECT_LT(points[0].avgLatencyUs, points[1].avgLatencyUs);
    EXPECT_LT(points[1].avgLatencyUs, points[2].avgLatencyUs);
}

TEST(LoadSimulation, TailGrowsFasterThanMedian)
{
    LoadSimulation sim(mercuryLoad());
    const LoadPoint heavy = sim.run(0.9 * sim.capacity());
    EXPECT_GT(heavy.p99Us, 1.5 * heavy.p50Us);
    EXPECT_GE(heavy.p99Us, heavy.p95Us);
    EXPECT_GE(heavy.p95Us, heavy.p50Us);
}

TEST(LoadSimulation, AchievedTracksOfferedWhenStable)
{
    LoadSimulation sim(mercuryLoad());
    const LoadPoint p = sim.run(0.5 * sim.capacity());
    EXPECT_NEAR(p.achievedTps / p.offeredTps, 1.0, 0.15);
}

TEST(LoadSimulation, IridiumKneesEarlierThanMercury)
{
    LoadSimParams iridium = mercuryLoad();
    iridium.node.memory = MemoryKind::Flash;
    iridium.node.withL2 = true;

    LoadSimulation mercury_sim(mercuryLoad());
    LoadSimulation iridium_sim(iridium);

    const LoadPoint m = mercury_sim.run(0.8 *
                                        mercury_sim.capacity());
    const LoadPoint i = iridium_sim.run(0.8 *
                                        iridium_sim.capacity());
    EXPECT_LT(m.p99Us, i.p99Us)
        << "flash tails must exceed DRAM tails at equal utilization";
    EXPECT_GE(m.subMsFraction, i.subMsFraction);
}

} // anonymous namespace
