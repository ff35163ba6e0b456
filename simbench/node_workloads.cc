/**
 * @file
 * Single-node workloads: one ServerModel driven back to back (a
 * closed loop with one call in flight) by a request stream the
 * benchmark generates itself.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "kvstore/store.hh"
#include "mem/dram.hh"
#include "mem/flash.hh"
#include "server/server_model.hh"
#include "workload/workload.hh"

namespace simbench
{

namespace
{

using namespace mercury;

struct NodeSpec
{
    const char *name;
    bool iridium;
    std::uint32_t valueBytes;
    std::uint64_t keys;
    double getFraction;
};

// Why these two points: see README.md in this directory. Key counts
// keep the store far below its memory limit, so nothing is evicted
// and every GET of a populated key must hit.
constexpr NodeSpec nodeSpecs[] = {
    {"mercury_small_get", false, 64, 20000, 0.95},
    {"iridium_mixed_4k", true, 4096, 8000, 0.70},
};

/** Requests after populate that warm the modelled caches. */
constexpr unsigned warmupRequests = 2000;
/** Measured requests whose outputs are digested and counted
 * exactly; the rest of the timed run only adds host-time samples. */
constexpr std::uint64_t prefixRequests = 2000;
/** Requests per batch; each batch yields one rate and one host-speed
 * probe. Short batches let the probe follow the host's drift. */
constexpr unsigned batchRequests = 250;
/** Calls per quantile group: each group yields one p50 and one p99
 * (ten calls beyond it) of the per-call host time. */
constexpr std::size_t quantileGroup = 1000;
/** An untraced run is this many segments, each a fresh set-up then
 * an equal share of the timed requests, so set-up is sampled across
 * the run's host conditions like the requests are; setup_s is the
 * median segment set-up. Only one rig is alive at a time. */
constexpr int segments = 10;

/** A device that times a deterministic 1-in-N sample of its calls and
 * checks every completion against its issue tick. */
template <class Device>
class SampledDevice final : public Device
{
  public:
    using Device::Device;

    Tick
    access(mem::AccessType type, Addr addr, unsigned size,
           Tick now) override
    {
        Tick done;
        if (sampler.due()) {
            const std::uint64_t t0 = nowNs();
            done = Device::access(type, addr, size, now);
            sampler.sampledNs += static_cast<double>(nowNs() - t0);
            ++sampler.sampled;
        } else {
            done = Device::access(type, addr, size, now);
        }
        ++sampler.calls;
        if (done < now)
            ++sampler.backwards;
        return done;
    }

    CallSampler sampler;
};

/** One configured node: devices, model, key names, request stream. */
struct NodeRig
{
    NodeRig(const NodeSpec &spec, std::uint64_t seed, bool sampled);

    stats::Registry registry{"simbench"};
    std::unique_ptr<mem::DramModel> dram;
    std::unique_ptr<mem::FlashController> flash;
    /** Non-null when the data device samples its calls. */
    CallSampler *deviceSampler = nullptr;
    std::unique_ptr<server::ServerModel> server;
    const stats::Counter *bytesOut = nullptr;
    workload::WorkloadGenerator gen;
    std::vector<std::string> keys;
    /** Keys populate() failed to make resident. */
    std::uint64_t missingKeys = 0;
};

workload::WorkloadParams
streamParams(const NodeSpec &spec, std::uint64_t seed)
{
    workload::WorkloadParams wl;
    wl.numKeys = spec.keys;
    wl.popularity = workload::Popularity::Zipf;
    wl.zipfTheta = 0.99;
    wl.valueSize = workload::ValueSizeDist::fixed(spec.valueBytes);
    wl.getFraction = spec.getFraction;
    wl.seed = seed;
    return wl;
}

NodeRig::NodeRig(const NodeSpec &spec, std::uint64_t seed,
                 bool sampled)
    : gen(streamParams(spec, seed))
{
    server::ServerModelParams params;
    params.name = "n";
    params.core = cpu::cortexA7Params();
    params.withL2 = spec.iridium;
    params.memory = spec.iridium ? server::MemoryKind::Flash
                                 : server::MemoryKind::StackedDram;
    params.statsParent = &registry;
    params.seed = seed;

    // The data device is built here, exactly as ServerModel builds
    // its own, so the traced run can substitute a sampling subclass.
    server::SharedStackDevices shared;
    if (spec.iridium) {
        mem::FlashParams fp;
        fp.name = params.name + ".flash";
        fp.readLatency = params.flashReadLatency;
        fp.programLatency = params.flashWriteLatency;
        if (sampled) {
            auto device =
                std::make_unique<SampledDevice<mem::FlashController>>(
                    fp, &registry);
            deviceSampler = &device->sampler;
            flash = std::move(device);
        } else {
            flash = std::make_unique<mem::FlashController>(fp, &registry);
        }
        shared.flash = flash.get();
    } else {
        mem::DramParams dp = mem::stackedDramParams();
        dp.name = params.name + ".dram";
        dp.arrayLatency = params.dramArrayLatency;
        dp.pagePolicy = params.dramPagePolicy;
        if (sampled) {
            auto device = std::make_unique<SampledDevice<mem::DramModel>>(
                dp, &registry);
            deviceSampler = &device->sampler;
            dram = std::move(device);
        } else {
            dram = std::make_unique<mem::DramModel>(dp, &registry);
        }
        shared.dram = dram.get();
    }
    server = std::make_unique<server::ServerModel>(params, &shared);
    bytesOut = dynamic_cast<const stats::Counter *>(
        server->stats().find("bytesOut"));

    // ServerModel::populate names its keys "v<bytes>:<index>"; the
    // GET hit check below fails loudly if that naming ever changes.
    const std::string prefix =
        "v" + std::to_string(spec.valueBytes) + ":";
    keys.reserve(spec.keys);
    for (std::uint64_t id = 0; id < spec.keys; ++id)
        keys.push_back(prefix + std::to_string(id));
    const unsigned stored = server->populate(
        static_cast<unsigned>(spec.keys), spec.valueBytes);
    missingKeys = spec.keys - stored;

    for (unsigned i = 0; i < warmupRequests; ++i) {
        const workload::Request req = gen.next();
        if (req.op == workload::Request::Op::Get)
            server->get(keys[req.keyId]);
        else
            server->put(keys[req.keyId], req.valueBytes);
    }
}

/** What one timed pass over a rig measured. */
struct Phase
{
    explicit Phase(bool traced_) : traced(traced_) {}

    bool traced;
    SpeedProbe probe;
    /** Host slowdown measured after each batch. */
    std::vector<double> slowdowns;
    /** Requests per host second, raw and at nominal host speed. */
    std::vector<double> rawRates;
    std::vector<double> batchRates;
    /** Per-call host ns at nominal speed, gathered until a quantile
     * group is full, and each full group's quantiles. */
    std::vector<double> group;
    std::vector<double> groupP50;
    std::vector<double> groupP99;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    Digest digest;
    /** Exact counts over the prefix (traced passes only). */
    StatWindow window;

    // Traced passes only.
    double loopNs = 0.0;  ///< batch loops, replay excluded
    Span next;            ///< WorkloadGenerator::next, bulk
    Span get;             ///< ServerModel::get
    Span put;             ///< ServerModel::put
    /** Every op issued, replayed through the store afterwards so the
     * replay does not disturb the host caches mid-phase. */
    std::vector<workload::Request> ops;
};

void
runPhase(NodeRig &rig, const NodeSpec &spec, double seconds,
         double timer_ns, Phase &phase)
{
    if (rig.deviceSampler)
        *rig.deviceSampler = CallSampler{};
    const std::uint64_t get_bytes =
        spec.valueBytes +
        rig.server->params().cal.getResponseOverheadBytes;
    if (phase.traced) {
        phase.window.begin = StatSnapshot(rig.registry);
        phase.window.requests = prefixRequests;
    }

    std::vector<workload::Request> batch(batchRequests);
    std::vector<double> call_ns(batchRequests);
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    while (phase.requests < prefixRequests || nowNs() < deadline) {
        const std::uint64_t start = nowNs();
        for (workload::Request &req : batch)
            req = rig.gen.next();
        if (phase.traced) {
            phase.next.add(static_cast<double>(nowNs() - start) -
                               timer_ns,
                           batch.size());
        }

        for (std::size_t i = 0; i < batch.size(); ++i) {
            const workload::Request &req = batch[i];
            const std::string &key = rig.keys[req.keyId];
            const bool is_get = req.op == workload::Request::Op::Get;
            const std::uint64_t bytes_before = rig.bytesOut->value();
            const std::uint64_t t0 = nowNs();
            const server::RequestTiming timing =
                is_get ? rig.server->get(key)
                       : rig.server->put(key, req.valueBytes);
            const std::uint64_t ns = nowNs() - t0;
            call_ns[i] = static_cast<double>(ns);

            bool ok = timing.hit;
            if (is_get)
                ok = ok && rig.bytesOut->value() - bytes_before ==
                               get_bytes;
            phase.failed += !ok;
            if (phase.traced) {
                (is_get ? phase.get : phase.put)
                    .add(static_cast<double>(ns) - timer_ns);
            }
            if (phase.requests < prefixRequests) {
                phase.digest.mix(std::uint64_t{timing.rtt});
                phase.digest.mix(std::uint64_t{timing.hit});
            }
            if (++phase.requests == prefixRequests && phase.traced)
                phase.window.end = StatSnapshot(rig.registry);
        }
        const std::uint64_t loop_ns = nowNs() - start;
        const double slowdown = phase.probe.slowdown();
        const double rate = static_cast<double>(batch.size()) * 1e9 /
                            static_cast<double>(loop_ns);
        phase.slowdowns.push_back(slowdown);
        phase.rawRates.push_back(rate);
        phase.batchRates.push_back(rate * slowdown);
        for (const double ns : call_ns)
            phase.group.push_back(ns / slowdown);
        if (phase.group.size() >= quantileGroup) {
            phase.groupP50.push_back(quantile(phase.group, 0.50));
            phase.groupP99.push_back(quantile(phase.group, 0.99));
            phase.group.clear();
        }
        if (phase.traced) {
            phase.loopNs += static_cast<double>(loop_ns);
            phase.ops.insert(phase.ops.end(), batch.begin(), batch.end());
        }
    }
}

std::string
samples(std::uint64_t n, const char *what)
{
    return "(" + std::to_string(n) + " " + what + ")";
}

void
endToEnd(const NodeSpec &spec, const Options &options, Result &result)
{
    Phase phase(false);
    std::vector<double> setups;
    for (int k = 0; k < segments; ++k) {
        const double before = phase.probe.slowdown();
        const std::uint64_t t0 = nowNs();
        NodeRig rig(spec, options.seed, false);
        const double seconds = static_cast<double>(nowNs() - t0) * 1e-9;
        const double after = phase.probe.slowdown();
        setups.push_back(seconds / ((before + after) / 2.0));
        runPhase(rig, spec, options.seconds / segments, 0.0, phase);
        result.attempted += spec.keys;
        result.failed += rig.missingKeys;
    }

    result.attempted += phase.requests;
    result.failed += phase.failed;
    result.simDigest = phase.digest.value();
    char raw[96];
    std::snprintf(raw, sizeof(raw), "(%zu batches; raw %.0f req/s at "
                  "median slowdown %.3f)",
                  phase.batchRates.size(), median(phase.rawRates),
                  median(phase.slowdowns));
    result.add("sim_reqs_per_host_s", median(phase.batchRates), "req/s",
               raw);
    // Median over groups of each group's quantile, so a host hiccup
    // in a few groups cannot move the reported tail.
    const std::string per_group =
        "(median of " + std::to_string(phase.groupP99.size()) +
        " groups of " + std::to_string(quantileGroup) + " calls)";
    result.add("host_us_per_req_p50", median(phase.groupP50) / 1e3, "us",
               per_group);
    result.add("host_us_per_req_p99", median(phase.groupP99) / 1e3, "us",
               per_group);
    result.add("setup_s", median(setups), "s",
               samples(setups.size(), "set-ups"));
    result.add("peak_rss_mb", peakRssMb(), "MB");
}

void
perLayer(const NodeSpec &spec, const Options &options, Result &result)
{
    const double timer_ns = calibrateTimerNs();
    const double half = options.seconds / 2.0;

    // Untraced pass first, on its own rig, for the overhead baseline
    // and the digest the traced pass must reproduce.
    Phase plain(false);
    {
        NodeRig rig(spec, options.seed, false);
        runPhase(rig, spec, half, 0.0, plain);
        result.failed += plain.failed + rig.missingKeys;
        result.attempted += plain.requests + spec.keys;
    }

    NodeRig rig(spec, options.seed, true);
    Phase traced(true);
    runPhase(rig, spec, half, timer_ns, traced);
    const server::ServerModelParams &params = rig.server->params();
    kvstore::StoreParams sp;
    sp.name = "replay";
    sp.memLimit = params.storeMemLimit;
    sp.eviction = params.eviction;
    sp.locking = params.locking;
    KvReplay replay(sp, rig.keys, spec.valueBytes);
    const double replay_before = traced.probe.slowdown();
    replay.replay(traced.ops, timer_ns);
    const double replay_slowdown =
        (replay_before + traced.probe.slowdown()) / 2.0;
    const CallSampler &device = *rig.deviceSampler;
    result.failed += traced.failed + rig.missingKeys + device.backwards +
                     replay.failed;
    result.attempted += traced.requests + spec.keys + device.calls;
    result.simDigest = traced.digest.value();
    if (traced.digest.value() != plain.digest.value())
        result.failed += prefixRequests;

    // Layer times are scaled to nominal host speed like the
    // end-to-end ones, using the traced pass's median slowdown.
    const double slowdown = median(traced.slowdowns);
    const double requests = static_cast<double>(traced.requests);
    const double device_ns = device.nsPerCall(timer_ns) / slowdown;
    const double device_ns_per_req =
        device_ns * static_cast<double>(device.calls) / requests;
    const double call_us_per_req =
        (traced.get.ns + traced.put.ns) / requests / 1e3;

    result.add("workload.next_ns", traced.next.mean() / slowdown, "ns");
    replay.addMetrics(result, replay_slowdown);
    result.add("kvstore.evictions",
               traced.window.end.sum(".store.evictions") +
                   static_cast<double>(replay.evictions()),
               "count");
    result.add("server.get_us", traced.get.mean() / 1e3 / slowdown, "us",
               samples(traced.get.count, "calls"));
    result.add("server.put_us", traced.put.mean() / 1e3 / slowdown, "us",
               samples(traced.put.count, "calls"));
    result.add("server.walk_us_per_req",
               call_us_per_req / slowdown -
                   (replay.nsPerOp() / replay_slowdown + device_ns_per_req) /
                       1e3,
               "us");
    addCoreAndCacheMetrics(result, traced.window);
    result.add("mem.dram.ns_per_call", spec.iridium ? 0.0 : device_ns,
               "ns", samples(device.sampled, "sampled calls"));
    result.add("mem.flash.ns_per_call", spec.iridium ? device_ns : 0.0,
               "ns", samples(device.sampled, "sampled calls"));
    result.add("mem.flash.write_amplification",
               rig.flash ? rig.flash->writeAmplification() : 0.0,
               "ratio");
    result.add("mem.flash.gc_moves",
               traced.window.delta(".flash.gcMoves"), "count");
    result.add("net.drops_per_kreq",
               1e3 * traced.window.perRequest(".packetDrops"), "count");
    result.add("net.retransmits_per_kreq",
               1e3 * traced.window.perRequest(".retransmits"), "count");
    for (const char *name :
         {"cluster.ctor_s", "cluster.capacity_s", "cluster.populate_s",
          "cluster.run_s"})
        result.add(name, 0.0, "s", "(no cluster)");
    for (const char *name :
         {"cluster.hedges_per_req", "cluster.retries_per_req",
          "cluster.hints_queued"})
        result.add(name, 0.0, "count", "(no cluster)");
    result.add("cluster.availability", 0.0, "frac", "(no cluster)");
    result.add("cluster.sim_p99_us", 0.0, "sim_us", "(no cluster)");
    result.add("cluster.hottest_node_share", 0.0, "frac",
               "(no cluster)");

    const double plain_rate = median(plain.batchRates);
    const double traced_rate = median(traced.batchRates);
    result.add("trace.overhead_frac", plain_rate / traced_rate - 1.0,
               "frac");
    result.add("trace.timer_ns", timer_ns, "ns");
    result.add("trace.host_slowdown", slowdown, "ratio");

    // Accounting: generator + simulator call per request against the
    // loop's measured host time per request.
    std::printf("accounting parts_us=%.4f span_us=%.4f\n",
                traced.next.mean() / 1e3 + call_us_per_req,
                traced.loopNs / requests / 1e3);
}

} // anonymous namespace

bool
runNodeWorkload(const Options &options, Result &result)
{
    for (const NodeSpec &spec : nodeSpecs) {
        if (options.workload != spec.name)
            continue;
        if (options.trace)
            perLayer(spec, options, result);
        else
            endToEnd(spec, options, result);
        return true;
    }
    return false;
}

} // namespace simbench
