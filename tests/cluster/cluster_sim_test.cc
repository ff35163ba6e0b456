/**
 * @file
 * Tests for the cluster timing simulation.
 */

#include <bit>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster_sim.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;

ClusterSimParams
smallCluster(unsigned nodes, double theta = 0.99)
{
    ClusterSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = false;
    p.node.storeMemLimit = 32 * miB;
    p.nodes = nodes;
    p.numKeys = 1000;
    p.zipfTheta = theta;
    p.requests = 800;
    p.warmup = 100;
    return p;
}

TEST(ClusterSim, AggregateCapacityScalesWithNodes)
{
    ClusterSim four(smallCluster(4));
    ClusterSim eight(smallCluster(8));
    EXPECT_NEAR(eight.aggregateCapacity() / four.aggregateCapacity(),
                2.0, 0.05);
}

TEST(ClusterSim, LightLoadStaysSubMillisecond)
{
    ClusterSim sim(smallCluster(8));
    const ClusterSimResult r =
        sim.run(0.2 * sim.aggregateCapacity());
    EXPECT_GT(r.subMsFraction, 0.97);
    EXPECT_LT(r.avgLatencyUs, 400.0);
}

TEST(ClusterSim, SkewConcentratesLoad)
{
    ClusterSim skewed(smallCluster(8, 0.99));
    ClusterSim flat(smallCluster(8, 0.15));
    const double cap = skewed.aggregateCapacity();
    const ClusterSimResult hot = skewed.run(0.3 * cap);
    const ClusterSimResult even = flat.run(0.3 * cap);
    EXPECT_GT(hot.hottestNodeShare, even.hottestNodeShare);
}

TEST(ClusterSim, HigherLoadRaisesTail)
{
    ClusterSim sim(smallCluster(8, 0.7));
    const double cap = sim.aggregateCapacity();
    const ClusterSimResult light = sim.run(0.2 * cap);
    ClusterSim sim2(smallCluster(8, 0.7));
    const ClusterSimResult heavy = sim2.run(0.7 * cap);
    EXPECT_GT(heavy.p99LatencyUs, light.p99LatencyUs);
}

TEST(ClusterSim, HotKeyDefeatsThinNodesUnderExtremeSkew)
{
    // The emergent limit of the Sec. 3.8 argument (see
    // bench/cluster_tail): same aggregate capacity, same load, but
    // the fine-grained cluster queues on the unshardable hot key.
    ClusterSim fat(smallCluster(4, 0.99));
    ClusterSim thin(smallCluster(32, 0.99));
    const ClusterSimResult fat_r =
        fat.run(0.6 * fat.aggregateCapacity());
    const ClusterSimResult thin_r =
        thin.run(0.6 * thin.aggregateCapacity());
    EXPECT_GT(thin_r.p99LatencyUs, fat_r.p99LatencyUs);
}

TEST(ClusterSim, ZeroRequestsIsAContractViolation)
{
    // With no measured request, availability and the hot-node share
    // would be 0/0, and the outcome accounting would still balance.
    contract::ScopedContractThrow guard;
    ClusterSimParams params = smallCluster(4);
    params.requests = 0;
    ClusterSim sim(params);
    EXPECT_THROW(sim.run(20000.0), contract::ContractViolation);
}

TEST(ClusterSim, DeterministicForSeed)
{
    ClusterSim a(smallCluster(4)), b(smallCluster(4));
    const ClusterSimResult ra = a.run(20000.0);
    const ClusterSimResult rb = b.run(20000.0);
    EXPECT_DOUBLE_EQ(ra.avgLatencyUs, rb.avgLatencyUs);
    EXPECT_DOUBLE_EQ(ra.p99LatencyUs, rb.p99LatencyUs);
}

/** Folds @p bytes into the FNV-1a digest @p h. */
void
digestBytes(std::uint64_t &h, std::string_view bytes)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
}

void
digestWord(std::uint64_t &h, std::uint64_t word)
{
    for (unsigned byte = 0; byte < 8; ++byte) {
        h ^= (word >> (8 * byte)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/** Folds every field of @p r, doubles by their bit patterns. */
void
digestResult(std::uint64_t &h, const ClusterSimResult &r)
{
    const double reals[] = {
        r.offeredTps,       r.avgLatencyUs,
        r.p99LatencyUs,     r.subMsFraction,
        r.hottestNodeShare, r.p999LatencyUs,
        r.availability,     r.minWindowAvailability,
        r.hitRate,          r.postRestartHitRate,
    };
    for (const double real : reals)
        digestWord(h, std::bit_cast<std::uint64_t>(real));
    const std::uint64_t counts[] = {
        r.requests,        r.ok,
        r.timeouts,        r.failedRequests,
        r.shed,            r.attemptTimeouts,
        r.retries,         r.hedges,
        r.hedgeWins,       r.hintsQueued,
        r.hintsReplayed,   r.readRepairs,
        r.maxOutstanding,  r.crashes,
        r.restarts,        r.netDrops,
        r.netRetransmits,  r.faultTimelineDigest,
    };
    for (const std::uint64_t count : counts)
        digestWord(h, count);
}

ClusterSimParams
pinBase()
{
    ClusterSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = false;
    p.node.storeMemLimit = 32 * miB;
    p.nodes = 4;
    p.numKeys = 600;
    p.zipfTheta = 0.9;
    p.requests = 400;
    p.warmup = 50;
    p.availabilityWindow = 1 * tickMs;
    p.faults.requestTimeout = 500 * tickUs;
    p.faults.backoffBase = 100 * tickUs;
    return p;
}

/** Crash node0 shortly after the run's time origin. */
void
crashNode0(ClusterSim &sim)
{
    sim.injector().schedule(sim.timeOrigin() + 1 * tickMs,
                            fault::FaultKind::NodeCrash, "node0");
}

/** One client configuration, what it must exercise, and its pins:
 * the result and sampler bytes, and the span bytes. */
struct ClientPathPin
{
    const char *name;
    void (*configure)(ClusterSimParams &);
    void (*schedule)(ClusterSim &);
    double utilization;
    bool (*exercised)(const ClusterSim &, const ClusterSimResult &);
    std::uint64_t digest;
    std::uint64_t spanDigest;
};

TEST(ClusterSim, EveryClientPathIsPinnedExactly)
{
    // Exact bytes of every client outcome path: each ClusterSimResult
    // field and the windowed sampler JSONL, and apart from them the
    // span JSONL when the tracer is compiled in. Each row also checks
    // that it reaches the path it is named for, so a pin cannot
    // silently degrade into a clean run.
    const ClientPathPin pins[] = {
        {"clean-r1", [](ClusterSimParams &) {}, nullptr, 0.5,
         [](const ClusterSim &, const ClusterSimResult &r) {
             return r.ok == r.requests;
         },
         0xb820addc9a0f525aULL,
         0x0d54453ffa618d50ULL},
        {"r2-rack-hedged-crashes-loss",
         [](ClusterSimParams &p) {
             p.nodes = 8;
             p.racks = 4;
             p.resilience.replicationFactor = 2;
             p.resilience.rackAwareReplicas = true;
             p.resilience.hedgedReads = true;
             p.faults.enabled = true;
             p.faults.packetLossProbability = 0.01;
             p.faults.nodeCrashesPerSecond = 1000.0;
             p.faults.nodeDowntime = 1 * tickMs;
             p.faults.maxRetries = 2;
         },
         nullptr, 0.4,
         [](const ClusterSim &, const ClusterSimResult &r) {
             return r.hedges > 0 && r.hedgeWins > 0 && r.crashes > 0 &&
                    r.netRetransmits > 0;
         },
         0x687ac6d02f983bc1ULL,
         0x4921cca0dc254dd3ULL},
        {"r2-writes-across-crash",
         [](ClusterSimParams &p) {
             p.nodes = 6;
             p.getFraction = 0.5;
             p.resilience.replicationFactor = 2;
             p.faults.nodeDowntime = 1 * tickMs;
         },
         crashNode0, 0.5,
         [](const ClusterSim &, const ClusterSimResult &r) {
             return r.hintsQueued > 0 && r.hintsReplayed > 0 &&
                    r.readRepairs > 0;
         },
         0x296a90ac14380de0ULL,
         0xde97102119886941ULL},
        {"admission-overload",
         [](ClusterSimParams &p) {
             p.resilience.admissionControl = true;
             p.resilience.sloQueueDelay = 200 * tickUs;
             p.faults.maxRetries = 1;
         },
         nullptr, 1.6,
         [](const ClusterSim &, const ClusterSimResult &r) {
             return r.shed > 0 && r.ok > 0;
         },
         0x8cb69de9a454eda3ULL,
         0xcf51b51f7ac6a59fULL},
        {"r2-hedged-admission-crash",
         [](ClusterSimParams &p) {
             p.getFraction = 0.7;
             p.resilience.replicationFactor = 2;
             p.resilience.hedgedReads = true;
             p.resilience.admissionControl = true;
             p.resilience.sloQueueDelay = 50 * tickUs;
             p.faults.nodeDowntime = 2 * tickMs;
         },
         crashNode0, 1.6,
         [](const ClusterSim &, const ClusterSimResult &r) {
             return r.shed > 0 && r.hedges > 0 && r.hintsQueued > 0;
         },
         0xec56e3d18fb08687ULL,
         0xaef71fad2de02ef1ULL},
        {"retry-budget-crashes",
         [](ClusterSimParams &p) {
             p.resilience.retryBudgetFraction = 0.02;
             p.faults.enabled = true;
             p.faults.nodeCrashesPerSecond = 1000.0;
             p.faults.nodeDowntime = 1 * tickMs;
         },
         nullptr, 0.4,
         [](const ClusterSim &, const ClusterSimResult &r) {
             return r.failedRequests > 0 && r.retries > 0;
         },
         0x02f95aab0a011709ULL,
         0x38a854d3a238bce9ULL},
        {"r1-no-retries-timeouts",
         [](ClusterSimParams &p) { p.faults.maxRetries = 0; },
         crashNode0, 0.5,
         [](const ClusterSim &, const ClusterSimResult &r) {
             return r.timeouts > 0 && r.attemptTimeouts > 0;
         },
         0x64ba0b073d5616adULL,
         0x182f9c082dda33d3ULL},
        {"bad-day-flash",
         [](ClusterSimParams &p) {
             p.nodes = 8;
             p.racks = 4;
             p.node.memory = server::MemoryKind::Flash;
             p.resilience.replicationFactor = 2;
             p.resilience.rackAwareReplicas = true;
             p.resilience.hedgedReads = true;
             p.faults.enabled = true;
             p.faults.maxRetries = 2;
         },
         [](ClusterSim &sim) {
             fault::BadDayPlan plan;
             plan.at = sim.timeOrigin() + 1 * tickMs;
             plan.crashedNodes = {"node0", "node4"};
             plan.crashStagger = 500 * tickUs;
             plan.downtime = 1 * tickMs;
             plan.lossProbability = 0.02;
             plan.lossDuration = 1 * tickMs;
             plan.flashProgramFailProbability = 0.005;
             plan.flashWearDuration = 1 * tickMs;
             fault::scheduleBadDay(sim.injector(), plan);
         },
         0.3,
         [](const ClusterSim &sim, const ClusterSimResult &r) {
             bool degrade = false, restore = false, wear = false;
             for (const fault::FaultRecord &f :
                  sim.injector().timeline()) {
                 degrade |= f.kind == fault::FaultKind::NetDegrade;
                 restore |= f.kind == fault::FaultKind::NetRestore;
                 wear |= f.kind == fault::FaultKind::FlashWear;
             }
             return degrade && restore && wear && r.restarts > 0;
         },
         0xb8701fc59f20ce27ULL,
         0x6e7c091d375f96f7ULL},
    };
    for (const ClientPathPin &pin : pins) {
        ClusterSimParams params = pinBase();
        pin.configure(params);
        stats::Sampler sampler(500 * tickUs, pin.name);
        trace::Tracer tracer(1 << 15);
        params.sampler = &sampler;
        params.tracer = &tracer;
        ClusterSim sim(params);
        if (pin.schedule)
            pin.schedule(sim);
        const ClusterSimResult r =
            sim.run(pin.utilization * sim.aggregateCapacity());
        EXPECT_TRUE(pin.exercised(sim, r)) << pin.name;

        std::uint64_t h = 0xcbf29ce484222325ULL;
        digestResult(h, r);
        digestBytes(h, sampler.jsonl());
        EXPECT_EQ(h, pin.digest)
            << pin.name << " digest 0x" << std::hex << h;
        EXPECT_EQ(tracer.droppedSpans(), 0u) << pin.name;
        std::ostringstream spans;
        tracer.writeJsonl(spans);
        std::uint64_t hs = 0xcbf29ce484222325ULL;
        digestBytes(hs, spans.str());
        EXPECT_EQ(hs, pin.spanDigest)
            << pin.name << " span digest 0x" << std::hex << hs;
    }
}

} // anonymous namespace
