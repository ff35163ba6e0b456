/**
 * @file
 * google-benchmark microbenchmarks for the simulation substrate:
 * cache probes, DRAM/flash timing walks, core trace execution and
 * the end-to-end single-request path.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"

#include <algorithm>

#include "cpu/core.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/flash.hh"
#include "server/server_model.hh"

namespace
{

using namespace mercury;

void
BM_CacheHit(benchmark::State &state)
{
    mem::DramModel dram(mem::stackedDramParams());
    mem::HierarchyParams hp;
    hp.hasL2 = true;
    mem::CacheHierarchy caches(hp, &dram);
    caches.access(mem::CpuAccessKind::Load, 0x1000, 0);
    Tick now = tickUs;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            caches.access(mem::CpuAccessKind::Load, 0x1000, now));
        now += 10;
    }
}
BENCHMARK(BM_CacheHit);

void
BM_DramAccess(benchmark::State &state)
{
    mem::DramModel dram(mem::stackedDramParams());
    Tick now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        now = dram.access(mem::AccessType::Read, addr, 64, now);
        addr += 4096;
    }
}
BENCHMARK(BM_DramAccess);

void
BM_FlashRead(benchmark::State &state)
{
    mem::FlashParams params;
    params.capacity = 256 * miB;
    params.numChannels = 4;
    mem::FlashController flash(params);
    // Map some pages first.
    Tick now = 0;
    for (Addr addr = 0; addr < 1 * miB; addr += 4096)
        now = flash.access(mem::AccessType::Write, addr, 64, now);
    now = flash.drainWrites(now);

    Addr addr = 0;
    for (auto _ : state) {
        now = flash.access(mem::AccessType::Read, addr, 64, now);
        addr = (addr + 4096) % (1 * miB);
    }
}
BENCHMARK(BM_FlashRead);

/**
 * Walk one run-length code pass over and over on @p core_params,
 * counting the ops the core walks: one fetch per line plus one
 * compute per line whose instruction share is non-zero.
 */
void
walkCodePass(benchmark::State &state, const cpu::CoreParams &core_params)
{
    mem::DramModel dram(mem::stackedDramParams());
    mem::CacheHierarchy caches(
        cpu::defaultHierarchy(core_params.type, false), &dram);
    cpu::CoreModel core(core_params, &caches);

    cpu::OpTrace trace;
    cpu::TraceBuilder(trace).codePass(0, 12 * kiB, 9000);

    Tick now = 0;
    std::uint64_t walked = 0;
    for (auto _ : state) {
        const cpu::RunResult r = core.run(trace, now);
        now = r.end;
        walked += r.memOps + std::min(r.memOps, r.instructions);
        benchmark::DoNotOptimize(r.end);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(walked));
}

/** In-order A7: fetches take the blocking fetch loop. */
void
BM_CoreTraceExecution(benchmark::State &state)
{
    walkCodePass(state, cpu::cortexA7Params());
}
BENCHMARK(BM_CoreTraceExecution);

/** Out-of-order A15: fetches take the general memory-op path with its
 * miss window. */
void
BM_CoreTraceExecutionA15(benchmark::State &state)
{
    walkCodePass(state, cpu::cortexA15Params());
}
BENCHMARK(BM_CoreTraceExecutionA15);

void
BM_EndToEndGet(benchmark::State &state)
{
    server::ServerModelParams params;
    params.core = cpu::cortexA7Params();
    params.withL2 = true;
    params.storeMemLimit = 64 * miB;
    server::ServerModel server(params);
    server.populate(1000, 64);

    std::uint64_t i = 0;
    for (auto _ : state) {
        const auto timing =
            server.get("v64:" + std::to_string(i++ % 1000));
        benchmark::DoNotOptimize(timing.rtt);
    }
}
BENCHMARK(BM_EndToEndGet);

} // anonymous namespace

// Same shape as BENCHMARK_MAIN(), with the shared bench flags
// (--stats-json/--trace-out/--smoke) consumed first so
// google-benchmark never sees them.
int
main(int argc, char **argv)
{
    mercury::bench::Session obs(argc, argv, "micro_sim");
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
