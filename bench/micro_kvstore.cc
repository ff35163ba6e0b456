/**
 * @file
 * google-benchmark microbenchmarks for the key-value store
 * substrate: hashing, slab allocation and store operations.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"

#include <charconv>
#include <optional>
#include <string>
#include <vector>

#include "kvstore/hash.hh"
#include "kvstore/store.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::kvstore;

void
BM_HashKey(benchmark::State &state)
{
    const std::string key(static_cast<std::size_t>(state.range(0)),
                          'k');
    for (auto _ : state)
        benchmark::DoNotOptimize(hashKey(key));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_HashKey)->Arg(8)->Arg(32)->Arg(128);

void
BM_SlabAllocateFree(benchmark::State &state)
{
    SlabParams params;
    params.memLimit = 64 * miB;
    SlabAllocator slabs(params);
    const auto cls = static_cast<unsigned>(
        slabs.classFor(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state) {
        void *chunk = slabs.allocate(cls);
        benchmark::DoNotOptimize(chunk);
        slabs.free(cls, chunk);
    }
}
BENCHMARK(BM_SlabAllocateFree)->Arg(128)->Arg(4096)->Arg(65536);

StoreParams
benchStoreParams()
{
    StoreParams p;
    p.memLimit = 256 * miB;
    return p;
}

void
BM_StoreGetHit(benchmark::State &state)
{
    Store store(benchStoreParams());
    const std::string value(static_cast<std::size_t>(state.range(0)),
                            'v');
    for (int i = 0; i < 10000; ++i)
        store.set("key" + std::to_string(i), value);

    Rng rng(1);
    for (auto _ : state) {
        const std::string key =
            "key" + std::to_string(rng.nextInt(10000));
        benchmark::DoNotOptimize(store.get(key));
    }
}
BENCHMARK(BM_StoreGetHit)->Arg(64)->Arg(1024)->Arg(65536);

void
BM_StoreSet(benchmark::State &state)
{
    Store store(benchStoreParams());
    const std::string value(1024, 'v');
    Rng rng(3);
    for (auto _ : state) {
        const std::string key =
            "key" + std::to_string(rng.nextInt(20000));
        benchmark::DoNotOptimize(store.set(key, value));
    }
}
BENCHMARK(BM_StoreSet);

void
BM_StoreSetWithEviction(benchmark::State &state)
{
    StoreParams params = benchStoreParams();
    params.memLimit = 8 * miB;
    Store store(params);
    const std::string value(4096, 'v');
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            store.set("key" + std::to_string(i++), value));
    }
}
BENCHMARK(BM_StoreSetWithEviction);

/** Fill a fresh store with state.range(0) distinct, absent 64 B
 * items, as ServerModel::populate does before a measurement. Keys
 * follow ServerModel::keyFor's "v<size>:<index>" and are built in
 * one reused buffer, so the timed loop is the store's insert path. */
void
BM_StorePopulate(benchmark::State &state)
{
    const auto keys = static_cast<std::uint64_t>(state.range(0));
    const std::string value(64, 'v');
    std::string key = "v64:";
    const std::size_t prefix = key.size();
    char digits[20];
    std::optional<Store> store;
    for (auto _ : state) {
        state.PauseTiming();
        store.reset();
        store.emplace(benchStoreParams());
        state.ResumeTiming();
        for (std::uint64_t i = 0; i < keys; ++i) {
            char *end =
                std::to_chars(digits, digits + sizeof(digits), i).ptr;
            key.resize(prefix);
            key.append(digits, end);
            benchmark::DoNotOptimize(store->set(key, value));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_StorePopulate)->Arg(20000);

} // anonymous namespace

// Same shape as BENCHMARK_MAIN(), with the shared bench flags
// (--stats-json/--trace-out/--smoke) consumed first so
// google-benchmark never sees them.
int
main(int argc, char **argv)
{
    mercury::bench::Session obs(argc, argv, "micro_kvstore");
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
