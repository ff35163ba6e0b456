/**
 * @file
 * Tests for the cluster-layer fault model: ring failover order,
 * client retry/failover, and whole-simulation determinism under a
 * fixed fault seed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster_sim.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;
using mercury::detail::concat;

// --- Ring failover order --------------------------------------------

TEST(ConsistentHashRing, NodesForStartsAtOwnerAndIsDistinct)
{
    ConsistentHashRing ring;
    for (int i = 0; i < 8; ++i)
        ring.addNode("node" + std::to_string(i));

    for (int i = 0; i < 200; ++i) {
        const std::string key = concat("k", i);
        const auto order = ring.nodesFor(key, 3);
        ASSERT_EQ(order.size(), 3u);
        EXPECT_EQ(ring.nodeName(order[0]), ring.nodeFor(key));
        EXPECT_NE(order[0], order[1]);
        EXPECT_NE(order[1], order[2]);
        EXPECT_NE(order[0], order[2]);
    }
}

TEST(ConsistentHashRing, NodesForCapsAtClusterSize)
{
    ConsistentHashRing ring;
    ring.addNode("a");
    ring.addNode("b");
    const auto order = ring.nodesFor("key", 10);
    EXPECT_EQ(order.size(), 2u);
}

// --- ClusterSim under faults ----------------------------------------

ClusterSimParams
faultyCluster(double loss, double crashes_per_sec)
{
    ClusterSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = false;
    p.node.storeMemLimit = 32 * miB;
    p.nodes = 4;
    p.numKeys = 800;
    p.zipfTheta = 0.9;
    p.requests = 500;
    p.warmup = 50;

    p.faults.enabled = true;
    p.faults.packetLossProbability = loss;
    p.faults.nodeCrashesPerSecond = crashes_per_sec;
    p.faults.nodeDowntime = 3 * tickMs;
    p.faults.requestTimeout = 500 * tickUs;
    p.faults.maxRetries = 2;
    p.faults.backoffBase = 100 * tickUs;
    p.faults.seed = 0xfa17;
    return p;
}

TEST(ClusterSimFaults, SameSeedReproducesEverything)
{
    const ClusterSimParams params = faultyCluster(0.02, 300.0);
    ClusterSim a(params), b(params);
    const double offered = 0.3 * a.aggregateCapacity();
    const ClusterSimResult ra = a.run(offered);
    const ClusterSimResult rb = b.run(offered);

    EXPECT_EQ(ra.faultTimelineDigest, rb.faultTimelineDigest);
    EXPECT_EQ(ra.crashes, rb.crashes);
    EXPECT_EQ(ra.restarts, rb.restarts);
    EXPECT_EQ(ra.timeouts, rb.timeouts);
    EXPECT_EQ(ra.attemptTimeouts, rb.attemptTimeouts);
    EXPECT_EQ(ra.retries, rb.retries);
    EXPECT_EQ(ra.failedRequests, rb.failedRequests);
    EXPECT_EQ(ra.shed, rb.shed);
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.netDrops, rb.netDrops);
    EXPECT_EQ(ra.netRetransmits, rb.netRetransmits);
    EXPECT_EQ(ra.availability, rb.availability);
    EXPECT_EQ(ra.avgLatencyUs, rb.avgLatencyUs);
    EXPECT_EQ(ra.p99LatencyUs, rb.p99LatencyUs);
    EXPECT_EQ(ra.p999LatencyUs, rb.p999LatencyUs);
    EXPECT_EQ(ra.hitRate, rb.hitRate);
    EXPECT_EQ(ra.postRestartHitRate, rb.postRestartHitRate);

    // The timelines really are populated (faults fired).
    EXPECT_GT(a.injector().faultCount(), 0u);
}

TEST(ClusterSimFaults, ZeroRatesBehaveLikeACleanRun)
{
    ClusterSim sim(faultyCluster(0.0, 0.0));
    const ClusterSimResult r = sim.run(0.3 * sim.aggregateCapacity());
    EXPECT_EQ(r.availability, 1.0);
    EXPECT_EQ(r.ok, r.requests);
    EXPECT_EQ(r.timeouts, 0u);
    EXPECT_EQ(r.attemptTimeouts, 0u);
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.failedRequests, 0u);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.crashes, 0u);
    EXPECT_EQ(r.netDrops, 0u);
    EXPECT_EQ(sim.injector().faultCount(), 0u);

    // Fault injection off entirely: the same client walk serves every
    // request, so the run matches the zero-rate one field for field.
    ClusterSimParams off_params = faultyCluster(0.0, 0.0);
    off_params.faults.enabled = false;
    ClusterSim off(off_params);
    const ClusterSimResult ro = off.run(0.3 * off.aggregateCapacity());
    EXPECT_EQ(ro.ok, r.ok);
    EXPECT_EQ(ro.avgLatencyUs, r.avgLatencyUs);
    EXPECT_EQ(ro.p99LatencyUs, r.p99LatencyUs);
    EXPECT_EQ(ro.p999LatencyUs, r.p999LatencyUs);
    EXPECT_EQ(ro.hitRate, r.hitRate);
    EXPECT_EQ(ro.hottestNodeShare, r.hottestNodeShare);
    EXPECT_EQ(ro.maxOutstanding, r.maxOutstanding);
    EXPECT_EQ(ro.readRepairs, r.readRepairs);
}

TEST(ClusterSimFaults, PacketLossRaisesTailAndRetransmits)
{
    ClusterSim clean(faultyCluster(0.0, 0.0));
    ClusterSim lossy(faultyCluster(0.05, 0.0));
    const double offered = 0.3 * clean.aggregateCapacity();
    const ClusterSimResult rc = clean.run(offered);
    const ClusterSimResult rl = lossy.run(offered);

    EXPECT_GT(rl.netRetransmits, 0u);
    EXPECT_GT(rl.p99LatencyUs, rc.p99LatencyUs);
    EXPECT_GE(rl.p999LatencyUs, rl.p99LatencyUs);
}

TEST(ClusterSimFaults, CrashesCostTimeoutsAndHitRate)
{
    ClusterSim sim(faultyCluster(0.0, 400.0));
    const ClusterSimResult r = sim.run(0.3 * sim.aggregateCapacity());
    EXPECT_GT(r.crashes, 0u);
    EXPECT_GT(r.attemptTimeouts, 0u);
    // Cold restarts and failovers lose cached keys.
    EXPECT_LT(r.hitRate, 1.0);
    EXPECT_LE(r.availability, 1.0);
}

TEST(ClusterSimFaults, ScheduledCrashPlanFires)
{
    ClusterSimParams params = faultyCluster(0.0, 0.0);
    params.warmup = 0;  // the whole downtime window is measured
    ClusterSim sim(params);
    // Due before the first arrival: the victim dies immediately and
    // restarts after the configured downtime.
    sim.injector().schedule(1, fault::FaultKind::NodeCrash, "node0");
    const ClusterSimResult r = sim.run(0.3 * sim.aggregateCapacity());
    EXPECT_EQ(r.crashes, 1u);
    EXPECT_GE(r.restarts, 1u);
    EXPECT_GT(r.attemptTimeouts, 0u);
    bool saw_crash = false;
    for (const auto &record : sim.injector().timeline()) {
        if (record.kind == fault::FaultKind::NodeCrash &&
            record.target == "node0") {
            saw_crash = true;
        }
    }
    EXPECT_TRUE(saw_crash);
}

} // anonymous namespace
