/**
 * @file
 * Robustness extension: degradation curves under injected faults.
 *
 * Sweeps packet-loss rate x node-crash rate over the cluster
 * simulation and grown-bad-block rates over the FTL, emitting one
 * JSON line per point. Every number is produced by the deterministic
 * fault framework (src/sim/fault.hh): re-running this binary with
 * the same build reproduces the output byte for byte, and the
 * "digest" field is the fault-timeline hash a reader can diff first.
 *
 * The paper measures Mercury/Iridium clusters in steady state; this
 * harness asks what the dense-cluster argument costs in bad weather:
 * more, smaller nodes mean more frequent (if smaller) failures, so
 * client-visible availability and tail latency under faults are part
 * of the density trade.
 *
 * Each sweep point owns its cluster (or FTL) and fault-injector
 * stream, so points shard freely across `--jobs N` workers; JSON
 * lines and the sweep-wide stats accumulate in submission order
 * during the ordered emission phase, keeping output byte-identical
 * to the serial run.
 *
 * Usage: fault_sweep [--smoke]   (--smoke runs a tiny CI-sized sweep)
 */

#include <cstddef>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.hh"
#include "cluster/cluster_sim.hh"
#include "mem/flash.hh"
#include "parallel_sweep.hh"
#include "sim/random.hh"
#include "sim/sampler.hh"

namespace
{

using namespace mercury;
using namespace mercury::cluster;

/** Sweep-wide aggregates, visible through --stats-json. The per-node
 * simulators are transient (one cluster per sweep point), so the
 * registry carries the sweep totals rather than per-node trees. */
struct SweepStats
{
    stats::StatGroup cluster;
    stats::Counter points, requests, ok, timeouts, retries, failed,
        shed, crashes;
    /** The accounting contract as a registry formula: 0 iff every
     * measured request landed in exactly one outcome class. */
    stats::Formula unaccounted;
    stats::StatGroup flash;
    stats::Counter flashPoints, retired, programFailures;

    explicit SweepStats(stats::StatGroup *parent)
        : cluster("cluster", parent),
          points(&cluster, "points", "sweep points simulated"),
          requests(&cluster, "requests", "measured requests"),
          ok(&cluster, "ok", "requests answered"),
          timeouts(&cluster, "timeouts",
                   "requests with every attempt timed out"),
          retries(&cluster, "retries", "request retries issued"),
          failed(&cluster, "failed",
                 "requests that gave up (retry budget)"),
          shed(&cluster, "shed",
               "requests refused by admission control"),
          crashes(&cluster, "crashes", "node crashes injected"),
          unaccounted(
              &cluster, "unaccounted",
              "requests - (ok + timeouts + failed + shed); 0 by "
              "contract",
              [this] {
                  return static_cast<double>(requests.value()) -
                         static_cast<double>(
                             ok.value() + timeouts.value() +
                             failed.value() + shed.value());
              }),
          flash("flash", parent),
          flashPoints(&flash, "points", "FTL sweep points"),
          retired(&flash, "retired", "blocks retired across points"),
          programFailures(&flash, "programFailures",
                          "program failures across points")
    {
    }
};

ClusterSimParams
baseParams(bool smoke)
{
    ClusterSimParams params;
    params.node.core = cpu::cortexA7Params();
    params.node.withL2 = false;
    params.node.storeMemLimit = 48 * miB;
    params.nodes = 8;
    params.numKeys = 2000;
    params.zipfTheta = 0.9;
    params.requests = smoke ? 300 : 1500;
    params.warmup = smoke ? 50 : 150;

    params.faults.enabled = true;
    params.faults.requestTimeout = 1 * tickMs;
    params.faults.nodeDowntime = 5 * tickMs;
    params.faults.maxRetries = 2;
    params.faults.backoffBase = 200 * tickUs;
    params.faults.seed = 0xfa17;
    return params;
}

void
clusterPoint(bench::PointContext &ctx,
             const ClusterSimParams &params, double offered_tps,
             ClusterSimResult &out)
{
    ClusterSimParams run_params = params;
    run_params.tracer = ctx.tracer();

    // Per-point recovery-curve sampler under --timeseries-out: every
    // line carries the point's fault coordinates as its label, so the
    // merged JSONL is self-describing. Point samplers are private to
    // the point and published in submission order, keeping the file
    // byte-identical across --jobs values.
    std::optional<stats::Sampler> sampler;
    if (ctx.wantTimeseries()) {
        char label[64];
        std::snprintf(label, sizeof(label),
                      "loss=%.4f,crash=%.0f",
                      params.faults.packetLossProbability,
                      params.faults.nodeCrashesPerSecond);
        sampler.emplace(ctx.sampleInterval(), label);
        run_params.sampler = &*sampler;
    }

    ClusterSim sim(run_params);
    const ClusterSimResult r = sim.run(offered_tps);
    if (sampler)
        ctx.timeseries(sampler->jsonl());
    bench::JsonLine line;
    line.str("section", "cluster")
        .number("loss", "%.4f", params.faults.packetLossProbability)
        .number("crashPerSec", "%.0f",
                params.faults.nodeCrashesPerSecond)
        .number("availability", "%.6f", r.availability)
        .number("avgUs", "%.1f", r.avgLatencyUs)
        .number("p99Us", "%.1f", r.p99LatencyUs)
        .number("p999Us", "%.1f", r.p999LatencyUs)
        .number("hitRate", "%.4f", r.hitRate)
        .number("postRestartHitRate", "%.4f", r.postRestartHitRate)
        .uint("ok", r.ok)
        .uint("timeouts", r.timeouts)
        .uint("attemptTimeouts", r.attemptTimeouts)
        .uint("retries", r.retries)
        .uint("failed", r.failedRequests)
        .uint("shed", r.shed)
        .uint("crashes", r.crashes)
        .uint("restarts", r.restarts)
        .uint("netDrops", r.netDrops)
        .uint("netRetransmits", r.netRetransmits)
        .hex("digest", r.faultTimelineDigest);
    ctx.printf("%s", line.text().c_str());
    out = r;
}

/** The slice of FTL state the ordered stats accumulation needs
 * after the point's Ftl object is gone. */
struct FlashOutcome
{
    std::uint64_t retired = 0;
    std::uint64_t programFailures = 0;
};

void
flashPoint(bench::PointContext &ctx, double erase_fail,
           double program_fail, unsigned writes, FlashOutcome &out)
{
    // One small channel: 128 blocks of 32 pages, 10% spare.
    mem::Ftl ftl(4096, 32, 0.10, 4, 64);
    fault::FaultInjector injector(0xfa17);
    ftl.setFaultInjection(&injector, program_fail, erase_fail,
                          "ftl");

    Rng rng(7);
    Tick now = 0;
    for (unsigned i = 0; i < writes; ++i) {
        ftl.write(rng.nextInt(ftl.logicalPages()), now);
        now += 200 * tickUs;
    }

    bench::JsonLine line;
    line.str("section", "flash")
        .number("eraseFail", "%.4f", erase_fail)
        .number("programFail", "%.4f", program_fail)
        .uint("retired", ftl.retiredBlocks())
        .uint("spareRemaining", ftl.spareBlocksRemaining())
        .number("capacityLoss", "%.4f", ftl.capacityLossFraction())
        .number("writeAmp", "%.3f", ftl.writeAmplification())
        .uint("programFailures", ftl.programFailures())
        .boolean("consistent", ftl.checkConsistency())
        .hex("digest", injector.timelineDigest());
    ctx.printf("%s", line.text().c_str());

    out.retired = ftl.retiredBlocks();
    out.programFailures = ftl.programFailures();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Session session(argc, argv, "fault_sweep");
    const bool smoke = session.smoke();
    SweepStats stats(session.statsParent());

    bench::banner("Fault sweep: packet loss x node crashes "
                  "(cluster) and grown bad blocks (FTL)");

    const std::vector<double> losses =
        smoke ? std::vector<double>{0.0, 0.01}
              : std::vector<double>{0.0, 0.001, 0.01, 0.05};
    const std::vector<double> crash_rates =
        smoke ? std::vector<double>{0.0, 400.0}
              : std::vector<double>{0.0, 100.0, 400.0};

    // One capacity probe for the whole sweep so every point runs at
    // the same offered load.
    ClusterSimParams base = baseParams(smoke);
    double offered = 0.0;
    {
        ClusterSim probe(base);
        offered = 0.6 * probe.aggregateCapacity();
    }

    // The cluster points run first; their JSON lines and stats
    // accumulate in loss-major order no matter how many workers ran
    // them.
    bench::ParallelSweep sweep(session);
    std::vector<ClusterSimResult> results(losses.size() *
                                          crash_rates.size());
    std::size_t index = 0;
    for (const double loss : losses) {
        for (const double crashes : crash_rates) {
            ClusterSimResult &slot = results[index++];
            sweep.point(
                [&, loss, crashes](bench::PointContext &ctx) {
                    ClusterSimParams params = base;
                    params.faults.packetLossProbability = loss;
                    params.faults.nodeCrashesPerSecond = crashes;
                    clusterPoint(ctx, params, offered, slot);
                },
                [&stats, &slot] {
                    ++stats.points;
                    stats.requests += slot.requests;
                    stats.ok += slot.ok;
                    stats.timeouts += slot.timeouts;
                    stats.retries += slot.retries;
                    stats.failed += slot.failedRequests;
                    stats.shed += slot.shed;
                    stats.crashes += slot.crashes;
                });
        }
    }
    sweep.run();

    std::printf("\n");
    const std::vector<double> erase_fails =
        smoke ? std::vector<double>{0.0, 0.01}
              : std::vector<double>{0.0, 0.002, 0.01, 0.05};
    const unsigned writes = smoke ? 20000 : 100000;
    std::vector<FlashOutcome> outcomes(erase_fails.size());
    for (std::size_t i = 0; i < erase_fails.size(); ++i) {
        const double erase_fail = erase_fails[i];
        FlashOutcome &slot = outcomes[i];
        sweep.point(
            [&, erase_fail](bench::PointContext &ctx) {
                flashPoint(ctx, erase_fail, erase_fail / 5.0,
                           writes, slot);
            },
            [&stats, &slot] {
                ++stats.flashPoints;
                stats.retired += slot.retired;
                stats.programFailures += slot.programFailures;
            });
    }
    sweep.run();

    std::printf(
        "\nReading the curves: availability and hit rate fall and "
        "p99/p999 rise monotonically with either fault rate; "
        "netRetransmits tracks loss while timeouts/restarts track "
        "crashes. In the FTL section retired blocks climb with the "
        "erase-failure rate until spareRemaining hits the headroom "
        "guard, with consistency audits green throughout.\n");
    return 0;
}
