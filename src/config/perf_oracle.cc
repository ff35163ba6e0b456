#include "config/perf_oracle.hh"

#include <map>
#include <mutex>
#include <tuple>

namespace mercury::config
{

namespace
{

using MemoKey =
    std::tuple<int, int, int, bool, int, unsigned, unsigned, unsigned>;

/**
 * Memoization shared by all sweep points; parallel sweeps (fig7/
 * fig8/table3 under --jobs N) probe it concurrently, so every access
 * to the entry map holds its mutex. The measurement itself runs
 * outside the lock: two points racing on the same key both compute
 * the same deterministic value, and the first insert wins.
 */
struct MemoCache
{
    std::mutex mutex;
    std::map<MemoKey, PerCorePerf> entries;
};

MemoCache &
memoCache()
{
    static MemoCache cache;
    return cache;
}

} // namespace

server::ServerModelParams
serverParamsFor(const physical::StackConfig &stack,
                const OracleOptions &options)
{
    server::ServerModelParams p;
    p.core = stack.core;
    p.withL2 = stack.withL2;
    p.memory = stack.memory == physical::StackMemory::Dram3D
                   ? server::MemoryKind::StackedDram
                   : server::MemoryKind::Flash;
    p.dramArrayLatency = options.dramLatency;
    p.flashReadLatency = options.flashReadLatency;
    p.storeMemLimit = 64 * miB;
    p.datapath = options.datapath;
    if (p.datapath.nicCacheEntries == 0 && stack.nicCacheMB > 0.0) {
        // Size the NIC cache from the stack's SRAM budget.
        p.datapath.nicCacheEntries = static_cast<unsigned>(
            stack.nicCacheMB * static_cast<double>(miB) /
            static_cast<double>(p.datapath.nicCacheEntryBytes));
    }
    return p;
}

PerCorePerf
measurePerCorePerf(const physical::StackConfig &stack,
                   const OracleOptions &options)
{
    MemoCache &cache = memoCache();
    // The memo key must include every knob that changes the modeled
    // core: the effective (derived) NIC-cache entry count folds in
    // stack.nicCacheMB, so two stacks differing only in SRAM budget
    // never share an entry.
    const server::ServerModelParams params =
        serverParamsFor(stack, options);
    const MemoKey key{static_cast<int>(stack.core.type),
                      static_cast<int>(stack.core.freqGHz * 100),
                      static_cast<int>(stack.memory), stack.withL2,
                      static_cast<int>(params.datapath.kind),
                      params.datapath.rxBatch,
                      params.datapath.txBatch,
                      params.datapath.nicCacheEntries};
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        auto it = cache.entries.find(key);
        if (it != cache.entries.end())
            return it->second;
    }

    server::ServerModel model(params);

    PerCorePerf perf;
    const server::Measurement small =
        model.measureGets(64, options.samples);
    perf.tps64 = small.avgTps;
    perf.goodput64GBs = small.goodput / 1e9;

    // Peak bandwidth appears at large requests; sweep the top sizes.
    for (std::uint32_t size : {256u * 1024u, 1024u * 1024u}) {
        const server::Measurement big =
            model.measureGets(size, options.samples);
        perf.maxBwGBs = std::max(perf.maxBwGBs, big.goodput / 1e9);
    }

    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        cache.entries.emplace(key, perf);
    }
    return perf;
}

} // namespace mercury::config
