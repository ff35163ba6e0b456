/**
 * @file
 * Ablation: locking and LRU design of the functional store. Strict
 * LRU reorders its list on every GET (the memcached 1.4 global-lock
 * problem); Bags stamps a timestamp and touches no shared state.
 * This drives the *real* store implementation and reports the
 * reorder counts behind the baseline thread-scaling parameters,
 * plus the modeled USL curves they imply.
 */

#include <cstdio>

#include "baseline/baseline.hh"
#include "bench_util.hh"
#include "kvstore/store.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::kvstore;

std::uint64_t
reordersPerMillionGets(EvictionPolicyKind eviction)
{
    StoreParams params;
    params.memLimit = 64 * miB;
    params.eviction = eviction;
    Store store(params);

    for (int i = 0; i < 10000; ++i)
        store.set("key" + std::to_string(i), "value");

    Rng rng(7);
    const int gets = 200000;
    for (int i = 0; i < gets; ++i)
        store.get("key" + std::to_string(rng.nextInt(10000)));

    return store.lruReorderOps() * 1000000 / gets;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    mercury::bench::Session session(argc, argv, "ablation_locking");
    bench::banner("Ablation: LRU design vs shared-state mutations "
                  "on the GET path (functional store)");

    std::printf("%-12s %26s\n", "Policy", "reorders per 1M GETs");
    bench::rule(40);
    std::printf("%-12s %26llu\n", "StrictLru",
                static_cast<unsigned long long>(
                    reordersPerMillionGets(
                        EvictionPolicyKind::StrictLru)));
    std::printf("%-12s %26llu\n", "Bags",
                static_cast<unsigned long long>(
                    reordersPerMillionGets(EvictionPolicyKind::Bags)));

    bench::banner("Modeled thread scaling (USL) for each software "
                  "version");
    std::printf("%-8s %14s %14s %14s   (TPS)\n", "Threads",
                "1.4 (global)", "1.6 (striped)", "Bags");
    bench::rule(60);
    using namespace mercury::baseline;
    const ScalingParams v14 = scalingFor(MemcachedVersion::V14);
    const ScalingParams v16 = scalingFor(MemcachedVersion::V16);
    const ScalingParams bags = scalingFor(MemcachedVersion::Bags);
    for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u}) {
        std::printf("%-8u %14.0f %14.0f %14.0f\n", n,
                    scaledTps(v14, n), scaledTps(v16, n),
                    scaledTps(bags, n));
    }
    std::printf("\nBags' empty reorder column is why its sigma is "
                "20x smaller: GETs serialize on nothing.\n");
    return 0;
}
