/**
 * @file
 * Host-performance self-benchmark: how fast does the simulator
 * itself run on this machine?
 *
 * Three sections, each timed with std::chrono::steady_clock and
 * reported both as a human-readable table and as a JSON file
 * (default BENCH_selfbench.json, override with --out=PATH):
 *
 *  - event queue: schedule/service throughput of the intrusive
 *    two-level EventQueue against the std::set ModelEventQueue
 *    reference (the pre-optimization implementation), plus the
 *    arena-managed one-shot churn rate;
 *  - kv store: end-to-end GET/SET ops/sec through the single-node
 *    server timing model;
 *  - datapath: host-side simulation rate of the request walk under
 *    the kernel path and the batched bypass fast path (how much the
 *    batching bookkeeping costs the simulator itself);
 *  - sweep: wall-clock for a fig5-style batch of independent server
 *    measurements run serially and through sim::ThreadPool, i.e.
 *    what `--jobs N` buys on this host. (On a single-hardware-thread
 *    container the parallel time roughly equals the serial time;
 *    the JSON records the measured ratio honestly either way.)
 *
 * Numbers are host-dependent by design -- nothing here is golden.
 * The JSON carries a host fingerprint (hardware threads, compiler,
 * build type); scripts/check.sh gates the per-second rates against
 * the committed BENCH_selfbench.json only when the fingerprints match
 * (tools/perfguard.py), and scripts/bench.sh runs the full version.
 *
 * Usage: selfbench [--smoke] [--jobs=N] [--out=PATH]
 *                  [--profile-out=PATH]
 *
 * --profile-out dumps the host-side event-queue profiler's per-type
 * cost map (requires configuring with -DMERCURY_PROFILE_EVENTS=ON;
 * default builds write a stub recording that profiling is off).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "net/datapath.hh"
#include "server/server_model.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/model_event_queue.hh"
#include "sim/thread_pool.hh"

namespace
{

using namespace mercury;

using Clock = std::chrono::steady_clock;

/** Append "key":<value> with a caller-chosen numeric format. Keys go
 * through the canonical writer (telemetry-json lint); the value
 * format stays explicit because these are human-scaled host rates,
 * not golden-pinned stats. */
void
field(std::ostream &os, bool &first, const char *key,
      const char *fmt, double value)
{
    json::writeKey(os, first, key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), fmt, value);
    os << buf;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

std::uint64_t
lcgNext(std::uint64_t &lcg)
{
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
}

/**
 * "Clocked" deltas: one of four fixed device latencies, the way
 * cache/DRAM/flash/NIC models schedule completions. Few distinct
 * (tick, priority) keys are live at once, so bins stay short.
 */
std::uint64_t
clockedDelta(std::uint64_t &lcg)
{
    static constexpr std::uint64_t latencies[4] = {10, 20, 50, 100};
    return latencies[lcgNext(lcg) & 3];
}

/** "Scattered" deltas (1..256 ticks): every event lands in its own
 * bin -- the intrusive queue's worst case. */
std::uint64_t
scatteredDelta(std::uint64_t &lcg)
{
    return (lcgNext(lcg) & 0xff) + 1;
}

struct NoopEvent : Event
{
    void process() override {}
    std::string description() const override { return "noop"; }
};

/**
 * Ladder workload: @p inflight no-op events stay queued; every
 * service immediately reschedules the serviced event a
 * pseudo-random (but deterministic) distance ahead. Exercises the
 * mixed near-head/at-tail insertion pattern real device models
 * produce. Works on both queue types by duck typing.
 */
template <typename Queue>
double
queueEventsPerSec(std::uint64_t total, unsigned inflight,
                  std::uint64_t (*next_delta)(std::uint64_t &))
{
    Queue queue;
    std::vector<NoopEvent> events(inflight);
    std::uint64_t lcg = 0x5eed;
    for (unsigned i = 0; i < inflight; ++i)
        queue.schedule(&events[i], queue.curTick() + next_delta(lcg));

    const auto start = Clock::now();
    for (std::uint64_t serviced = 0; serviced < total; ++serviced) {
        Event *event = queue.serviceOne();
        queue.schedule(event, queue.curTick() + next_delta(lcg));
    }
    const double elapsed = secondsSince(start);

    // Drain so the static events are unqueued at destruction.
    while (queue.serviceOne() != nullptr) {
    }
    return static_cast<double>(total) / elapsed;
}

/** Arena-managed one-shot churn: makeEvent + schedule + drain. */
double
arenaEventsPerSec(std::uint64_t total, unsigned batch)
{
    EventQueue queue;
    std::uint64_t lcg = 0x5eed;
    std::uint64_t created = 0;
    const auto start = Clock::now();
    while (created < total) {
        for (unsigned i = 0; i < batch; ++i)
            queue.schedule(queue.makeEvent<NoopEvent>(),
                           queue.curTick() + clockedDelta(lcg));
        created += batch;
        queue.run();
    }
    return static_cast<double>(total) / secondsSince(start);
}

/**
 * --profile-out: drive a mixed-type event workload through one queue
 * and dump the host-side profiler's per-type cost map. In default
 * builds (MERCURY_PROFILE_EVENTS=OFF) the file records that
 * profiling was compiled out, so consumers can always parse it.
 */
void
writeProfile(const std::string &path, [[maybe_unused]] bool smoke)
{
    std::FILE *fp = std::fopen(path.c_str(), "w");
    if (!fp) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return;
    }
#if MERCURY_EVENT_PROFILE
    EventQueue queue;
    // Three event types with distinct host costs, scheduled the way
    // device models do (few distinct latencies live at once).
    std::uint64_t sink = 0;
    EventFunctionWrapper nic([&] { sink += 1; }, "nic completion");
    EventFunctionWrapper dram(
        [&] {
            for (int i = 0; i < 32; ++i)
                sink += static_cast<std::uint64_t>(i) * sink + 1;
        },
        "dram completion");
    EventFunctionWrapper flash(
        [&] {
            for (int i = 0; i < 256; ++i)
                sink += static_cast<std::uint64_t>(i) * sink + 1;
        },
        "flash completion");
    EventFunctionWrapper *events[3] = {&nic, &dram, &flash};
    constexpr Tick latencies[3] = {10, 50, 400};
    const std::uint64_t total = smoke ? 30'000 : 300'000;
    std::uint64_t lcg = 0x5eed;
    for (std::uint64_t serviced = 0; serviced < total;) {
        for (unsigned i = 0; i < 3; ++i) {
            if (!events[i]->scheduled())
                queue.schedule(events[i],
                               queue.curTick() +
                                   latencies[lcgNext(lcg) % 3]);
        }
        queue.serviceOne();
        ++serviced;
    }
    while (queue.serviceOne() != nullptr) {
    }
    std::ostringstream os;
    queue.profiler().writeJson(os);
    std::fputs(os.str().c_str(), fp);
    if (sink == 0)
        std::fprintf(stderr, "profile workload elided\n");
#else
    std::ostringstream os;
    bool first = true;
    os << '{';
    json::writeKey(os, first, "enabled");
    os << "false";
    json::writeField(os, first, "reason",
                     std::string_view(
                         "configure with -DMERCURY_PROFILE_EVENTS"
                         "=ON"));
    os << "}\n";
    std::fputs(os.str().c_str(), fp);
    std::fprintf(stderr,
                 "selfbench: built without MERCURY_PROFILE_EVENTS; "
                 "%s records profiling as disabled\n",
                 path.c_str());
#endif
    std::fclose(fp);
}

double
storeOpsPerSec(std::uint64_t total)
{
    server::ServerModelParams params;
    params.core = cpu::cortexA7Params();
    params.withL2 = true;
    params.storeMemLimit = 64 * miB;
    server::ServerModel server(params);
    server.populate(1000, 64);

    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < total; ++i) {
        const std::string key = "v64:" + std::to_string(i % 1000);
        if (i % 4 == 3)
            server.put(key, 64);
        else
            server.get(key);
    }
    return static_cast<double>(total) / secondsSince(start);
}

/**
 * Datapath hot-loop probe: host-side simulation rate of the
 * request walk under each datapath. The bypass path models *more*
 * mechanism (batch accounting, NIC-cache lookups) yet simulates
 * fewer kernel phases per request; this probe keeps the host cost
 * of that trade visible so a regression in the batched fast path
 * shows up in BENCH_selfbench.json, not just in simulated TPS.
 */
double
datapathReqsPerSec(std::uint64_t total,
                   const net::DatapathParams &datapath)
{
    server::ServerModelParams params;
    params.core = cpu::cortexA7Params();
    params.withL2 = true;
    params.storeMemLimit = 64 * miB;
    params.datapath = datapath;
    server::ServerModel server(params);
    server.populate(1000, 64);

    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < total; ++i)
        server.get("v64:" + std::to_string(i % 1000));
    return static_cast<double>(total) / secondsSince(start);
}

/** One fig5-style measurement task: build a small server model and
 * measure a GET size point. Self-contained, like a sweep point. */
void
sweepTask(unsigned samples)
{
    server::ServerModelParams params;
    params.core = cpu::cortexA15Params(1.0);
    params.withL2 = true;
    params.memory = server::MemoryKind::StackedDram;
    params.storeMemLimit = 32 * miB;
    server::ServerModel model(params);
    model.measureGets(4096, samples);
}

double
sweepSerialSeconds(unsigned points, unsigned samples)
{
    const auto start = Clock::now();
    for (unsigned i = 0; i < points; ++i)
        sweepTask(samples);
    return secondsSince(start);
}

double
sweepParallelSeconds(unsigned points, unsigned samples,
                     unsigned jobs)
{
    sim::ThreadPool pool(jobs);
    const auto start = Clock::now();
    for (unsigned i = 0; i < points; ++i)
        pool.submit([samples] { sweepTask(samples); });
    pool.wait();
    return secondsSince(start);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Session session(
        argc, argv, "selfbench",
        {{"--out", "PATH",
          "results JSON path (default BENCH_selfbench.json)"},
         {"--profile-out", "PATH",
          "event-queue profiler JSON path"}});
    const bool smoke = session.smoke();

    std::string out = "BENCH_selfbench.json";
    std::string profile_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out = arg.substr(6);
        else if (arg.rfind("--profile-out=", 0) == 0)
            profile_out = arg.substr(14);
    }
    if (!profile_out.empty())
        writeProfile(profile_out, smoke);

    // --jobs defaults to 1 in Session; for the sweep section the
    // interesting default is "all hardware threads".
    const unsigned jobs =
        session.jobs() > 1
            ? session.jobs()
            : std::max(1u, std::thread::hardware_concurrency());

    const std::uint64_t queueTotal = smoke ? 200'000 : 4'000'000;
    const std::uint64_t arenaTotal = smoke ? 100'000 : 2'000'000;
    const std::uint64_t storeTotal = smoke ? 20'000 : 200'000;
    const unsigned sweepPoints = smoke ? 4 : 16;
    const unsigned sweepSamples = smoke ? 2 : 8;

    bench::banner("Simulator self-benchmark (host performance)");
    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf("host: nproc=%u compiler=\"%s\" build_type=%s\n\n",
                nproc, MERCURY_COMPILER, MERCURY_BUILD_TYPE);

    const double intrusive =
        queueEventsPerSec<EventQueue>(queueTotal, 64, clockedDelta);
    const double reference = queueEventsPerSec<ModelEventQueue>(
        queueTotal, 64, clockedDelta);
    const double queueSpeedup = intrusive / reference;
    const double intrusiveScattered = queueEventsPerSec<EventQueue>(
        queueTotal, 64, scatteredDelta);
    const double referenceScattered =
        queueEventsPerSec<ModelEventQueue>(queueTotal, 64,
                                           scatteredDelta);
    const double scatteredSpeedup =
        intrusiveScattered / referenceScattered;
    const double arena = arenaEventsPerSec(arenaTotal, 64);
    std::printf("%-34s %14.0f events/s\n",
                "queue clocked (intrusive)", intrusive);
    std::printf("%-34s %14.0f events/s\n",
                "queue clocked (std::set ref)", reference);
    std::printf("%-34s %14.2fx\n", "queue clocked speedup",
                queueSpeedup);
    std::printf("%-34s %14.0f events/s\n",
                "queue scattered (intrusive)", intrusiveScattered);
    std::printf("%-34s %14.0f events/s\n",
                "queue scattered (std::set ref)",
                referenceScattered);
    std::printf("%-34s %14.2fx\n", "queue scattered speedup",
                scatteredSpeedup);
    std::printf("%-34s %14.0f events/s\n",
                "arena one-shot events", arena);

    const double storeOps = storeOpsPerSec(storeTotal);
    std::printf("%-34s %14.0f ops/s\n", "kv store GET/SET",
                storeOps);

    net::DatapathParams kernel_dp;
    net::DatapathParams bypass_dp;
    bypass_dp.kind = net::DatapathKind::Bypass;
    net::DatapathParams batched_dp = bypass_dp;
    batched_dp.rxBatch = 32;
    batched_dp.txBatch = 32;
    const double kernelReqs =
        datapathReqsPerSec(storeTotal, kernel_dp);
    const double bypassReqs =
        datapathReqsPerSec(storeTotal, bypass_dp);
    const double batchedReqs =
        datapathReqsPerSec(storeTotal, batched_dp);
    const double batchingSpeedup = batchedReqs / bypassReqs;
    std::printf("%-34s %14.0f reqs/s\n", "datapath kernel GETs",
                kernelReqs);
    std::printf("%-34s %14.0f reqs/s\n", "datapath bypass batch=1",
                bypassReqs);
    std::printf("%-34s %14.0f reqs/s\n", "datapath bypass batch=32",
                batchedReqs);
    std::printf("%-34s %14.2fx  (host-side cost of batching)\n",
                "datapath batching ratio", batchingSpeedup);

    const double serialS =
        sweepSerialSeconds(sweepPoints, sweepSamples);
    const double parallelS =
        sweepParallelSeconds(sweepPoints, sweepSamples, jobs);
    const double sweepSpeedup = serialS / parallelS;
    std::printf("%-34s %14.1f ms\n", "sweep serial",
                serialS * 1e3);
    char label[64];
    std::snprintf(label, sizeof(label), "sweep --jobs %u", jobs);
    std::printf("%-34s %14.1f ms\n", label, parallelS * 1e3);
    std::printf("%-34s %14.2fx  (%u hardware threads)\n",
                "sweep speedup", sweepSpeedup, nproc);

    std::FILE *fp = std::fopen(out.c_str(), "w");
    if (!fp) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out.c_str());
        return 1;
    }
    std::ostringstream os;
    bool first = true;
    os << '{';
    json::writeKey(os, first, "smoke");
    os << (smoke ? "true" : "false");
    json::writeKey(os, first, "host");
    {
        bool hf = true;
        os << '{';
        json::writeField(os, hf, "nproc", std::uint64_t{nproc});
        json::writeField(os, hf, "compiler",
                         std::string_view(MERCURY_COMPILER));
        json::writeField(os, hf, "build_type",
                         std::string_view(MERCURY_BUILD_TYPE));
        os << '}';
    }
    json::writeKey(os, first, "queue");
    {
        bool qf = true;
        os << '{';
        field(os, qf, "intrusive_events_per_sec", "%.0f",
              intrusive);
        field(os, qf, "reference_events_per_sec", "%.0f",
              reference);
        field(os, qf, "speedup", "%.3f", queueSpeedup);
        field(os, qf, "scattered_intrusive_events_per_sec", "%.0f",
              intrusiveScattered);
        field(os, qf, "scattered_reference_events_per_sec", "%.0f",
              referenceScattered);
        field(os, qf, "scattered_speedup", "%.3f",
              scatteredSpeedup);
        field(os, qf, "arena_events_per_sec", "%.0f", arena);
        os << '}';
    }
    json::writeKey(os, first, "store");
    {
        bool sf = true;
        os << '{';
        field(os, sf, "ops_per_sec", "%.0f", storeOps);
        os << '}';
    }
    json::writeKey(os, first, "datapath");
    {
        bool df = true;
        os << '{';
        field(os, df, "kernel_reqs_per_sec", "%.0f", kernelReqs);
        field(os, df, "bypass_reqs_per_sec", "%.0f", bypassReqs);
        field(os, df, "batched_reqs_per_sec", "%.0f", batchedReqs);
        field(os, df, "batching_speedup", "%.3f", batchingSpeedup);
        os << '}';
    }
    json::writeKey(os, first, "sweep");
    {
        bool wf = true;
        os << '{';
        json::writeField(os, wf, "points",
                         std::uint64_t{sweepPoints});
        json::writeField(os, wf, "jobs", std::uint64_t{jobs});
        json::writeField(os, wf, "hardware_threads",
                         std::uint64_t{nproc});
        field(os, wf, "serial_ms", "%.2f", serialS * 1e3);
        field(os, wf, "parallel_ms", "%.2f", parallelS * 1e3);
        field(os, wf, "speedup", "%.3f", sweepSpeedup);
        os << '}';
    }
    os << "}\n";
    std::fputs(os.str().c_str(), fp);
    std::fclose(fp);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
