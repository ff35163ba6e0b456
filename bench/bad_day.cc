/**
 * @file
 * Robustness extension: survive the bad day.
 *
 * Three scenario families ask what keeps a dense key-value cluster
 * answering when its worst day arrives, and what each defence costs:
 *
 *  - crash: a scheduled single-node crash against an unreplicated
 *    baseline vs R-way replicated, hedged clients. The baseline's
 *    availability dips for the whole downtime window; replication
 *    plus hedged reads ride through it.
 *  - overload: offered load far above aggregate capacity, with
 *    per-node admission control off vs on. Shedding turns a
 *    collapsing tail into a bounded one plus an honest "busy" rate.
 *  - composed: a rack-correlated crash pair, a packet-loss burst and
 *    a flash wear burst on one seeded timeline (fault::BadDayPlan),
 *    against a rack-aware replicated, hedged, budgeted, shedding
 *    cluster.
 *
 * One JSON line per scenario; under --timeseries-out each scenario
 * also emits its availability/latency recovery curve from a windowed
 * sampler, labelled by scenario. Every point owns its cluster and
 * injector stream, so points shard freely across --jobs N workers
 * with byte-identical output; the "digest" field is the
 * fault-timeline hash a reader can diff first.
 *
 * Usage: bad_day [--smoke]   (--smoke runs a tiny CI-sized set)
 */

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cluster/cluster_sim.hh"
#include "parallel_sweep.hh"
#include "sim/sampler.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;

ClusterSimParams
baseParams(bool smoke)
{
    ClusterSimParams params;
    params.node.core = cpu::cortexA7Params();
    params.node.withL2 = false;
    params.node.storeMemLimit = 48 * miB;
    params.nodes = 6;
    params.numKeys = 1200;
    params.zipfTheta = 0.9;
    params.requests = smoke ? 400 : 2000;
    params.warmup = smoke ? 50 : 150;
    params.availabilityWindow = 5 * tickMs;

    params.faults.enabled = true;
    params.faults.requestTimeout = 1 * tickMs;
    params.faults.nodeDowntime = 5 * tickMs;
    params.faults.backoffBase = 200 * tickUs;
    params.faults.backoffJitter = 0.2;
    params.faults.seed = 0xbadda7;
    return params;
}

void
runScenario(bench::PointContext &ctx, const std::string &scenario,
            ClusterSimParams params, double utilization,
            const fault::BadDayPlan *plan, ClusterSimResult &out)
{
    params.tracer = ctx.tracer();

    // Per-scenario recovery-curve sampler under --timeseries-out;
    // the scenario name labels every emitted window.
    std::optional<stats::Sampler> sampler;
    if (ctx.wantTimeseries()) {
        sampler.emplace(ctx.sampleInterval(),
                        "scenario=" + scenario);
        params.sampler = &*sampler;
    }

    ClusterSim sim(params);
    if (plan) {
        // Plan ticks are relative to the run's origin.
        fault::BadDayPlan shifted = *plan;
        shifted.at += sim.timeOrigin();
        fault::scheduleBadDay(sim.injector(), shifted);
    }
    const ClusterSimResult r =
        sim.run(utilization * sim.aggregateCapacity());
    if (sampler)
        ctx.timeseries(sampler->jsonl());

    bench::JsonLine line;
    line.str("scenario", scenario)
        .uint("replication", params.resilience.replicationFactor)
        .boolean("hedged", params.resilience.hedgedReads)
        .boolean("admission", params.resilience.admissionControl)
        .number("utilization", "%.2f", utilization)
        .number("availability", "%.6f", r.availability)
        .number("minWindowAvailability", "%.6f",
                r.minWindowAvailability)
        .number("p99Us", "%.1f", r.p99LatencyUs)
        .number("p999Us", "%.1f", r.p999LatencyUs)
        .number("hitRate", "%.4f", r.hitRate)
        .uint("requests", r.requests)
        .uint("ok", r.ok)
        .uint("timeouts", r.timeouts)
        .uint("failed", r.failedRequests)
        .uint("shed", r.shed)
        .uint("attemptTimeouts", r.attemptTimeouts)
        .uint("retries", r.retries)
        .uint("hedges", r.hedges)
        .uint("hedgeWins", r.hedgeWins)
        .uint("hintsQueued", r.hintsQueued)
        .uint("hintsReplayed", r.hintsReplayed)
        .uint("readRepairs", r.readRepairs)
        .uint("maxOutstanding", r.maxOutstanding)
        .uint("crashes", r.crashes)
        .uint("restarts", r.restarts)
        .hex("digest", r.faultTimelineDigest);
    ctx.printf("%s", line.text().c_str());
    out = r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Session session(argc, argv, "bad_day");

    bench::banner("Bad day: crashes, overload and correlated "
                  "bursts vs replication, hedging and shedding");

    bench::ParallelSweep sweep(session);
    std::vector<ClusterSimResult> results;
    results.reserve(8);
    auto slot = [&results]() -> ClusterSimResult & {
        results.emplace_back();
        return results.back();
    };

    // --- Scenario family 1: one node crashes mid-run ---------------
    //
    // maxRetries=0 keeps the baseline honest: an unreplicated client
    // whose owner is down times out instead of silently refilling a
    // neighbour, so the availability dip is visible. The replicated
    // clients get no retries either -- hedging and write fan-out are
    // what carry them.
    struct CrashVariant
    {
        const char *name;
        unsigned replication;
        bool hedged;
    };
    const CrashVariant crash_variants[] = {
        {"crash-baseline", 1, false},
        {"crash-r2-hedged", 2, true},
        {"crash-r3-hedged", 3, true},
    };
    for (const CrashVariant &variant : crash_variants) {
        ClusterSimResult &out = slot();
        sweep.point([&, variant](bench::PointContext &ctx) {
            ClusterSimParams params = baseParams(ctx.smoke());
            params.faults.maxRetries = 0;
            params.faults.nodeDowntime = 15 * tickMs;
            params.resilience.replicationFactor =
                variant.replication;
            params.resilience.hedgedReads = variant.hedged;
            fault::BadDayPlan plan;
            plan.at = 5 * tickMs;
            plan.crashNodes = {"node0"};
            runScenario(ctx, variant.name, params, 0.5, &plan, out);
        });
    }

    // --- Scenario family 2: overload, shedding off vs on -----------
    const bool admission_variants[] = {false, true};
    for (const bool admission : admission_variants) {
        ClusterSimResult &out = slot();
        sweep.point([&, admission](bench::PointContext &ctx) {
            ClusterSimParams params = baseParams(ctx.smoke());
            params.nodes = 4;
            params.faults.maxRetries = 1;
            params.resilience.admissionControl = admission;
            const char *name = admission ? "overload-shedding"
                                         : "overload-baseline";
            runScenario(ctx, name, params, 1.6, nullptr, out);
        });
    }

    // --- Scenario family 3: the composed bad day --------------------
    //
    // Flash-backed nodes in four racks; rack 0 (node0, node4) loses
    // both machines a stagger apart while a cluster-wide loss burst
    // and a flash wear burst run. Rack-aware replication guarantees
    // no replica set lives entirely in the dead rack.
    {
        ClusterSimResult &out = slot();
        sweep.point([&](bench::PointContext &ctx) {
            ClusterSimParams params = baseParams(ctx.smoke());
            params.nodes = 8;
            params.racks = 4;
            params.node.memory = server::MemoryKind::Flash;
            params.faults.maxRetries = 2;
            params.resilience.replicationFactor = 2;
            params.resilience.rackAwareReplicas = true;
            params.resilience.hedgedReads = true;
            params.resilience.admissionControl = true;
            // Flash-backed nodes queue in hundreds of microseconds
            // even healthy; shed only genuine pile-ups.
            params.resilience.sloQueueDelay = 5 * tickMs;
            params.resilience.retryBudgetFraction = 0.5;
            fault::BadDayPlan plan;
            plan.at = 5 * tickMs;
            plan.crashNodes = {"node0", "node4"};
            plan.crashStagger = 2 * tickMs;
            plan.downtime = 15 * tickMs;
            plan.lossProbability = 0.02;
            plan.lossDuration = 20 * tickMs;
            plan.flashProgramFailProbability = 0.005;
            plan.flashWearDuration = 20 * tickMs;
            runScenario(ctx, "composed-bad-day", params, 0.3, &plan,
                        out);
        });
    }

    sweep.run();

    std::printf(
        "\nReading the lines: crash-baseline's "
        "minWindowAvailability dips for the whole downtime window "
        "while the replicated, hedged variants hold every window at "
        "or above 99%%. Under overload, shedding converts tail "
        "collapse into a bounded p999 plus a nonzero shed count. "
        "The composed bad day leans on every mechanism at once -- "
        "hints queue while rack 0 is dark and replay on restart, "
        "hedges rescue reads from dead primaries, and the digest "
        "pins the whole fault timeline.\n");
    return 0;
}
