/**
 * @file
 * Quickstart: the functional memcached-compatible store and the
 * single-node server timing model in a dozen lines each.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "kvstore/store.hh"
#include "server/server_model.hh"

int
main()
{
    using namespace mercury;

    // ------------------------------------------------------------
    // 1. A real key-value store: memcached semantics, slab
    //    allocator, LRU eviction, TTLs.
    // ------------------------------------------------------------
    kvstore::StoreParams store_params;
    store_params.memLimit = 64 * miB;
    kvstore::Store store(store_params);

    store.set("user:42", "{\"name\":\"ada\"}");
    store.set("session:9", "token-xyz", 0, /* ttl seconds */ 300);

    const kvstore::GetResult hit = store.get("user:42");
    std::printf("GET user:42 -> %s (cas %llu)\n", hit.value.c_str(),
                static_cast<unsigned long long>(hit.cas));

    std::uint64_t counter = 0;
    store.set("visits", "100");
    store.incr("visits", 5, counter);
    std::printf("INCR visits -> %llu\n",
                static_cast<unsigned long long>(counter));

    // ------------------------------------------------------------
    // 2. A Mercury node: one Cortex-A7 on a 3D stack with 4 GB of
    //    DRAM and an integrated 10GbE NIC. Measure what a 64 B GET
    //    costs end to end.
    // ------------------------------------------------------------
    server::ServerModelParams node;
    node.core = cpu::cortexA7Params();
    node.withL2 = false;  // Mercury foregoes the L2 (Sec. 4.1.3)
    node.memory = server::MemoryKind::StackedDram;
    server::ServerModel mercury_node(node);

    const server::Measurement m = mercury_node.measureGets(64);
    std::printf("\nMercury A7 node, 64 B GETs:\n");
    std::printf("  %.0f transactions/s (round trip %.1f us)\n",
                m.avgTps, m.avgRttUs);
    std::printf("  time split: %.0f%% network stack, %.0f%% "
                "memcached, %.0f%% hash\n",
                m.avgBreakdown.netstackFraction() * 100,
                m.avgBreakdown.memcachedFraction() * 100,
                m.avgBreakdown.hashFraction() * 100);

    // ------------------------------------------------------------
    // 3. The same node with the DRAM swapped for 19.8 GB of 3D
    //    NAND: Iridium. Denser, slower, still sub-millisecond.
    // ------------------------------------------------------------
    node.memory = server::MemoryKind::Flash;
    node.withL2 = true;  // Iridium requires the L2 (Sec. 4.2.1)
    server::ServerModel iridium_node(node);

    const server::Measurement i = iridium_node.measureGets(64);
    std::printf("\nIridium A7 node, 64 B GETs:\n");
    std::printf("  %.0f transactions/s, %.0f%% of requests under "
                "1 ms\n",
                i.avgTps, i.subMsFraction * 100);
    return 0;
}
