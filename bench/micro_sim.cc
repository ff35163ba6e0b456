/**
 * @file
 * google-benchmark microbenchmarks for the simulation substrate:
 * cache probes, DRAM/flash timing walks, core trace execution (one
 * L1I-resident pass, and a GET's code passes that miss, replayed from
 * the fetch memo or walked cold), the
 * end-to-end single-request path and the cluster client's replica
 * routing.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/ring.hh"
#include "cpu/core.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/fetch_memo.hh"
#include "mem/flash.hh"
#include "server/address_map.hh"
#include "server/server_model.hh"
#include "sim/contract.hh"

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

/**
 * The six code passes of one kernel-TCP GET with one packet each way,
 * at their AddressMap offsets: request path, rx packet path, hash of
 * an 8-byte key, memcached GET, request path, tx packet path.
 * Together they overflow the 32 KiB L1I, so every request's fetches
 * miss to the L2 or to DRAM.
 */
cpu::OpTrace
getCodePasses()
{
    const server::ServerModelParams params;
    const auto &cal = server::ServerModelParams::cal;
    const server::AddressMap map(params.sliceBase,
                                 params.storeMemLimit + miB);
    const Addr request_code = map.netstackCode() + 64 * kiB;
    cpu::OpTrace trace;
    cpu::TraceBuilder(trace)
        .codePass(request_code, cal.netstackRequestPathBytes,
                  cal.netstackInstrPerRequest / 2)
        .codePass(map.netstackCode(), cal.netstackRxPathBytes,
                  cal.netstackInstrPerRxPacket)
        .codePass(map.hashCode(), cal.hashCodeBytes,
                  cal.hashInstrBase + cal.hashInstrPerKeyByte * 8)
        .codePass(map.memcachedCode(), cal.memcachedGetPathBytes,
                  cal.memcachedInstrGet)
        .codePass(request_code, cal.netstackRequestPathBytes,
                  cal.netstackInstrPerRequest / 2)
        .codePass(map.netstackCode() + 32 * kiB, cal.netstackTxPathBytes,
                  cal.netstackInstrPerTxPacket);
    return trace;
}

/**
 * A GET's code passes, over and over, on an A7 with (arg 1) or
 * without (arg 0) the L2, with a fetch memo as ServerModel gives its
 * core. The passes recur, so after the first two GETs every pass
 * replays from the memo. Items are fetched lines.
 */
void
BM_CoreGetCodePasses(benchmark::State &state)
{
    const bool with_l2 = state.range(0) != 0;
    mem::DramModel dram(mem::stackedDramParams());
    mem::FetchMemo memo;
    mem::CacheHierarchy caches(
        cpu::defaultHierarchy(cpu::CoreType::CortexA7, with_l2), &dram,
        nullptr, &memo);
    cpu::CoreModel core(cpu::cortexA7Params(), &caches);
    const cpu::OpTrace trace = getCodePasses();

    Tick now = 0;
    std::uint64_t lines = 0;
    for (auto _ : state) {
        const cpu::RunResult r = core.run(trace, now);
        now = r.end;
        lines += r.memOps;
        benchmark::DoNotOptimize(r.end);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lines));
    state.SetLabel(with_l2 ? "L2" : "no L2");
}
BENCHMARK(BM_CoreGetCodePasses)->Arg(0)->Arg(1);

/**
 * BM_CoreGetCodePasses with a fresh hierarchy and memo for every
 * batch of two GETs, one from a cold L1I and one from the L1I the
 * first left: no pass recurs within a batch, so every pass walks and
 * records. This is the memo's cost on code that never repeats.
 * Items are fetched lines.
 */
void
BM_CoreGetCodePassesCold(benchmark::State &state)
{
    const bool with_l2 = state.range(0) != 0;
    mem::DramModel dram(mem::stackedDramParams());
    const mem::HierarchyParams hp =
        cpu::defaultHierarchy(cpu::CoreType::CortexA7, with_l2);
    const cpu::OpTrace trace = getCodePasses();

    Tick now = 0;
    std::uint64_t lines = 0;
    for (auto _ : state) {
        mem::FetchMemo memo;
        mem::CacheHierarchy caches(hp, &dram, nullptr, &memo);
        cpu::CoreModel core(cpu::cortexA7Params(), &caches);
        for (int get = 0; get < 2; ++get) {
            const cpu::RunResult r = core.run(trace, now);
            now = r.end;
            lines += r.memOps;
        }
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lines));
    state.SetLabel(with_l2 ? "L2" : "no L2");
}
BENCHMARK(BM_CoreGetCodePassesCold)->Arg(0)->Arg(1);

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

/** Replica order of one request as the cluster client resolves it:
 * rack-aware 2-way replication over 16 nodes in 4 racks. */
void
BM_RingReplicaOrder(benchmark::State &state)
{
    cluster::ConsistentHashRing ring(64);
    for (unsigned i = 0; i < 16; ++i)
        ring.addNode(detail::concat("node", i), i % 4);
    std::vector<std::string> keys;
    for (unsigned i = 0; i < 1024; ++i)
        keys.push_back(detail::concat("key:", i));

    std::size_t i = 0;
    for (auto _ : state) {
        const auto order = ring.replicasFor(keys[i++ % keys.size()], 2,
                                            true);
        benchmark::DoNotOptimize(order.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingReplicaOrder);

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
