/**
 * @file
 * Host-performance self-benchmark: how fast does the simulator
 * itself run on this machine?
 *
 * Three sections, each timed with std::chrono::steady_clock and
 * reported both as a human-readable table and as a JSON file
 * (default BENCH_selfbench.json, override with --out PATH):
 *
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
 * Usage: selfbench [--smoke] [--jobs N] [--out PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "bench_util.hh"
#include "net/datapath.hh"
#include "server/server_model.hh"
#include "sim/json.hh"
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
          "results JSON path (default BENCH_selfbench.json)"}});
    const bool smoke = session.smoke();

    std::string out = "BENCH_selfbench.json";
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (session.match(argv[i], "--out", i, argc, argv, value))
            out = value;
    }

    // The sweep section runs on every hardware thread unless --jobs
    // names a count, 1 included.
    const unsigned jobs =
        session.jobsGiven()
            ? session.jobs()
            : std::max(1u, std::thread::hardware_concurrency());

    const std::uint64_t storeTotal = smoke ? 20'000 : 200'000;
    const unsigned sweepPoints = smoke ? 4 : 16;
    const unsigned sweepSamples = smoke ? 2 : 8;

    bench::banner("Simulator self-benchmark (host performance)");
    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf("host: nproc=%u compiler=\"%s\" build_type=%s\n\n",
                nproc, MERCURY_COMPILER, MERCURY_BUILD_TYPE);

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
