/**
 * @file
 * cluster_bad_day: a 16-node ClusterSim under crashes and packet loss,
 * with rack-aware replication, hedged reads and a retry budget.
 *
 * ClusterSim draws its own request stream from the seed it is given,
 * so here the benchmark hands over only the seed. Inside the
 * simulation the load is an open loop (Poisson arrivals); in host
 * time the benchmark calls ClusterSim::run back to back, one batch of
 * requests per call.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hh"
#include "harness.hh"

namespace simbench
{

namespace
{

using namespace mercury;

/** Share of aggregateCapacity() offered. At 0.6x the hottest node
 * saturates and the simulated p99 grows past 80 ms. */
constexpr double offeredLoad = 0.2;
/** Requests per ClusterSim::run call. Much shorter batches see too
 * few crashes to exercise retries and hints. */
constexpr unsigned batchRequests = 1000;
constexpr unsigned batchWarmup = 50;
/** Batches whose results are digested and counted exactly. */
constexpr unsigned prefixBatches = 3;
/** Untraced runs alternate set-up and timed batches in this many
 * segments (see node_workloads.cc). */
constexpr int segments = 3;

cluster::ClusterSimParams
badDayParams(std::uint64_t seed, stats::StatGroup *stats_parent)
{
    cluster::ClusterSimParams p;
    p.node.core = cpu::cortexA7Params();
    p.node.withL2 = false;
    p.node.memory = server::MemoryKind::StackedDram;
    p.node.statsParent = stats_parent;
    p.nodes = 16;
    p.racks = 4;
    p.numKeys = 4000;
    p.popularity = workload::Popularity::Zipf;
    p.zipfTheta = 0.99;
    p.valueBytes = 64;
    p.getFraction = 0.95;
    p.requests = batchRequests;
    p.warmup = batchWarmup;
    p.seed = seed;

    p.faults.enabled = true;
    p.faults.packetLossProbability = 0.001;
    p.faults.nodeCrashesPerSecond = 50.0;
    p.faults.seed = seed * 0x9e3779b97f4a7c15ull + 0xfa17;

    p.resilience.replicationFactor = 2;
    p.resilience.rackAwareReplicas = true;
    p.resilience.hedgedReads = true;
    p.resilience.retryBudgetFraction = 0.1;
    return p;
}

/** A constructed, capacity-probed and populated cluster. */
struct ClusterRig
{
    ClusterRig(std::uint64_t seed, SpeedProbe &probe)
    {
        const double before = probe.slowdown();
        std::uint64_t t = nowNs();
        sim = std::make_unique<cluster::ClusterSim>(
            badDayParams(seed, &registry));
        ctor.add(static_cast<double>(nowNs() - t));
        t = nowNs();
        offeredTps = offeredLoad * sim->aggregateCapacity();
        capacity.add(static_cast<double>(nowNs() - t));
        t = nowNs();
        sim->populate();
        populate.add(static_cast<double>(nowNs() - t));
        slowdown = (before + probe.slowdown()) / 2.0;
    }

    /** Set-up host seconds at nominal host speed. */
    double
    setupSeconds() const
    {
        return (ctor.ns + capacity.ns + populate.ns) * 1e-9 / slowdown;
    }

    stats::Registry registry{"simbench"};
    std::unique_ptr<cluster::ClusterSim> sim;
    double offeredTps = 0.0;
    /** Host slowdown around the set-up. */
    double slowdown = 1.0;
    Span ctor;
    Span capacity;
    Span populate;
};

struct ClusterPhase
{
    SpeedProbe probe;
    std::vector<double> slowdowns;
    /** Simulated requests per host second, raw and at nominal speed. */
    std::vector<double> rawRates;
    std::vector<double> batchRates;
    /** Host us per simulated request at nominal speed, one sample per
     * batch. */
    std::vector<double> usPerReq;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    Digest digest;
    Span run;  ///< ClusterSim::run, one per batch
    /** Prefix batches' results, for the exact counts. */
    std::vector<cluster::ClusterSimResult> prefix;
    StatWindow window;
};

void
mixResult(Digest &digest, const cluster::ClusterSimResult &r)
{
    for (const std::uint64_t word :
         {r.requests, r.ok, r.timeouts, r.failedRequests, r.shed,
          r.attemptTimeouts, r.retries, r.hedges, r.hedgeWins,
          r.hintsQueued, r.hintsReplayed, r.readRepairs, r.crashes,
          r.restarts, r.netDrops, r.netRetransmits,
          r.faultTimelineDigest})
        digest.mix(word);
    for (const double value :
         {r.avgLatencyUs, r.p99LatencyUs, r.p999LatencyUs, r.hitRate,
          r.hottestNodeShare})
        digest.mix(value);
}

void
runPhase(ClusterRig &rig, double seconds, bool traced, double timer_ns,
         ClusterPhase &phase)
{
    const std::uint64_t simulated = batchRequests + batchWarmup;
    if (traced) {
        phase.window.begin = StatSnapshot(rig.registry);
        phase.window.requests = prefixBatches * simulated;
    }
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    while (phase.prefix.size() < prefixBatches || nowNs() < deadline) {
        const std::uint64_t t0 = nowNs();
        const cluster::ClusterSimResult r = rig.sim->run(rig.offeredTps);
        const std::uint64_t ns = nowNs() - t0;
        const double slowdown = phase.probe.slowdown();
        const double rate = static_cast<double>(simulated) * 1e9 /
                            static_cast<double>(ns);
        phase.slowdowns.push_back(slowdown);
        phase.rawRates.push_back(rate);
        phase.batchRates.push_back(rate * slowdown);
        phase.usPerReq.push_back(1e6 / (rate * slowdown));
        phase.requests += r.requests;
        if (r.accountedRequests() != r.requests ||
            r.requests != batchRequests)
            phase.failed += batchRequests;
        if (phase.prefix.size() < prefixBatches) {
            mixResult(phase.digest, r);
            phase.prefix.push_back(r);
            if (traced && phase.prefix.size() == prefixBatches)
                phase.window.end = StatSnapshot(rig.registry);
        }
        if (traced)
            phase.run.add(static_cast<double>(ns) - timer_ns);
    }
}


std::string
samples(std::size_t n, const char *what)
{
    return "(" + std::to_string(n) + " " + what + ")";
}

void
endToEnd(const Options &options, Result &result)
{
    ClusterPhase phase;
    std::vector<double> setups;
    for (int k = 0; k < segments; ++k) {
        ClusterRig rig(options.seed, phase.probe);
        setups.push_back(rig.setupSeconds());
        runPhase(rig, options.seconds / segments, false, 0.0, phase);
    }
    result.attempted = phase.requests;
    result.failed = phase.failed;
    result.simDigest = phase.digest.value();

    const std::string batches =
        samples(phase.usPerReq.size(), "batches");
    char raw[96];
    std::snprintf(raw, sizeof(raw), "(%zu batches; raw %.0f req/s at "
                  "median slowdown %.3f)",
                  phase.batchRates.size(), median(phase.rawRates),
                  median(phase.slowdowns));
    result.add("sim_reqs_per_host_s", median(phase.batchRates), "req/s",
               raw);
    result.add("host_us_per_req_p50", quantile(phase.usPerReq, 0.50),
               "us", batches);
    result.add("host_us_per_req_p99", quantile(phase.usPerReq, 0.99),
               "us", batches);
    result.add("setup_s", median(setups), "s",
               samples(setups.size(), "set-ups"));
    result.add("peak_rss_mb", peakRssMb(), "MB");
}

void
perLayer(const Options &options, Result &result)
{
    const double timer_ns = calibrateTimerNs();
    const double half = options.seconds / 2.0;

    ClusterPhase plain;
    {
        ClusterRig rig(options.seed, plain.probe);
        runPhase(rig, half, false, 0.0, plain);
    }

    ClusterPhase traced;
    ClusterRig rig(options.seed, traced.probe);
    runPhase(rig, half, true, timer_ns, traced);

    // ClusterSim draws its stream inside run(); the same generator
    // settings and key names, driven here for as many ops as the
    // traced batches simulated, time the generator and the store.
    const cluster::ClusterSimParams params =
        badDayParams(options.seed, nullptr);
    workload::WorkloadParams wl;
    wl.numKeys = params.numKeys;
    wl.popularity = params.popularity;
    wl.zipfTheta = params.zipfTheta;
    wl.valueSize = workload::ValueSizeDist::fixed(params.valueBytes);
    wl.getFraction = params.getFraction;
    wl.seed = params.seed;
    workload::WorkloadGenerator gen(wl);
    std::vector<std::string> keys;
    keys.reserve(params.numKeys);
    for (std::uint64_t id = 0; id < params.numKeys; ++id)
        keys.push_back(workload::WorkloadGenerator::keyFor(id));
    kvstore::StoreParams sp;
    sp.name = "replay";
    sp.memLimit = params.node.storeMemLimit;
    sp.eviction = params.node.eviction;
    sp.locking = params.node.locking;
    std::vector<workload::Request> ops(
        traced.run.count * (batchRequests + batchWarmup));
    const std::uint64_t g0 = nowNs();
    for (workload::Request &op : ops)
        op = gen.next();
    Span next;
    next.add(static_cast<double>(nowNs() - g0) - timer_ns, ops.size());
    KvReplay replay(sp, keys, params.valueBytes);
    const double replay_before = traced.probe.slowdown();
    replay.replay(ops, timer_ns);
    const double replay_slowdown =
        (replay_before + traced.probe.slowdown()) / 2.0;
    const double slowdown = median(traced.slowdowns);

    result.attempted = plain.requests + traced.requests;
    result.failed = plain.failed + traced.failed + replay.failed;
    result.simDigest = traced.digest.value();
    if (traced.digest.value() != plain.digest.value())
        result.failed += prefixBatches * batchRequests;

    const char *none = "(no single-node span)";
    result.add("workload.next_ns", next.mean() / replay_slowdown, "ns");
    replay.addMetrics(result, replay_slowdown);
    result.add("kvstore.evictions",
               traced.window.end.sum(".store.evictions") +
                   static_cast<double>(replay.evictions()),
               "count");
    result.add("server.get_us", 0.0, "us", none);
    result.add("server.put_us", 0.0, "us", none);
    result.add("server.walk_us_per_req", 0.0, "us", none);
    addCoreAndCacheMetrics(result, traced.window);
    result.add("mem.dram.ns_per_call", 0.0, "ns", none);
    result.add("mem.flash.ns_per_call", 0.0, "ns", "(no flash)");
    result.add("mem.flash.write_amplification", 0.0, "ratio",
               "(no flash)");
    result.add("mem.flash.gc_moves", 0.0, "count", "(no flash)");
    result.add("net.drops_per_kreq",
               1e3 * traced.window.perRequest(".packetDrops"), "count");
    result.add("net.retransmits_per_kreq",
               1e3 * traced.window.perRequest(".retransmits"), "count");

    result.add("cluster.ctor_s", rig.ctor.ns * 1e-9 / rig.slowdown, "s");
    result.add("cluster.capacity_s", rig.capacity.ns * 1e-9 / rig.slowdown,
               "s");
    result.add("cluster.populate_s", rig.populate.ns * 1e-9 / rig.slowdown,
               "s");
    result.add("cluster.run_s", traced.run.mean() * 1e-9 / slowdown, "s",
               samples(traced.run.count, "batches"));

    double requests = 0, ok = 0, hedges = 0, retries = 0, hints = 0;
    double p99 = 0, hottest = 0;
    for (const cluster::ClusterSimResult &r : traced.prefix) {
        requests += static_cast<double>(r.requests);
        ok += static_cast<double>(r.ok);
        hedges += static_cast<double>(r.hedges);
        retries += static_cast<double>(r.retries);
        hints += static_cast<double>(r.hintsQueued);
        p99 += r.p99LatencyUs / prefixBatches;
        hottest += r.hottestNodeShare / prefixBatches;
    }
    result.add("cluster.hedges_per_req", hedges / requests, "count");
    result.add("cluster.retries_per_req", retries / requests, "count");
    result.add("cluster.hints_queued", hints, "count");
    result.add("cluster.availability", ok / requests, "frac");
    result.add("cluster.sim_p99_us", p99, "sim_us",
               "(mean of prefix batches)");
    result.add("cluster.hottest_node_share", hottest, "frac");

    result.add("trace.overhead_frac",
               median(plain.batchRates) / median(traced.batchRates) -
                   1.0,
               "frac");
    result.add("trace.timer_ns", timer_ns, "ns");
    result.add("trace.host_slowdown", slowdown, "ratio");
    // The cluster has one traced part: the run span itself.
    double span_us = 0.0;
    for (const double rate : traced.rawRates)
        span_us += 1e6 / rate / static_cast<double>(traced.rawRates.size());
    std::printf("accounting parts_us=%.4f span_us=%.4f\n",
                traced.run.mean() / 1e3 /
                    static_cast<double>(batchRequests + batchWarmup),
                span_us);
}

} // anonymous namespace

void
runClusterWorkload(const Options &options, Result &result)
{
    if (options.trace)
        perLayer(options, result);
    else
        endToEnd(options, result);
}

} // namespace simbench
