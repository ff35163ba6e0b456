/**
 * @file
 * Cross-module integration tests: the full pipelines the paper's
 * evaluation rests on, exercised end to end.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "baseline/baseline.hh"
#include "config/explorer.hh"
#include "config/perf_oracle.hh"
#include "server/server_model.hh"
#include "workload/workload.hh"

namespace
{

using namespace mercury;

TEST(Integration, Table4HeadlineRatiosHold)
{
    // The abstract's claims, end to end from simulation: Mercury
    // improves TPS/W by ~4.9x and TPS/GB by ~3.5x over Bags;
    // Iridium improves density by ~14x at ~2.4x TPS/W.
    config::DesignExplorer explorer;

    physical::StackConfig mercury;
    mercury.core = cpu::cortexA7Params();
    mercury.coresPerStack = 32;
    mercury.withL2 = false;
    const config::ServerDesign mercury32 = explorer.solve(
        mercury, config::measurePerCorePerf(mercury));

    physical::StackConfig iridium = mercury;
    iridium.memory = physical::StackMemory::Flash3D;
    iridium.withL2 = true;
    const config::ServerDesign iridium32 = explorer.solve(
        iridium, config::measurePerCorePerf(iridium));

    const baseline::BaselineServer bags =
        baseline::memcachedBaseline(
            baseline::MemcachedVersion::Bags);

    const double tps_per_watt_gain =
        mercury32.tpsPerWatt() / bags.tpsPerWatt();
    EXPECT_GT(tps_per_watt_gain, 3.5);
    EXPECT_LT(tps_per_watt_gain, 6.5);

    const double tps_per_gb_gain =
        mercury32.tpsPerGB() / bags.tpsPerGB();
    EXPECT_GT(tps_per_gb_gain, 2.5);
    EXPECT_LT(tps_per_gb_gain, 4.5);

    const double density_gain = iridium32.densityGB / bags.memoryGB;
    EXPECT_GT(density_gain, 10.0);
    EXPECT_LT(density_gain, 18.0);

    const double iridium_efficiency_gain =
        iridium32.tpsPerWatt() / bags.tpsPerWatt();
    EXPECT_GT(iridium_efficiency_gain, 1.5);
    EXPECT_LT(iridium_efficiency_gain, 3.5);

    // Mercury ~2x Iridium TPS; Iridium ~5x Mercury density.
    EXPECT_NEAR(mercury32.tps64 / iridium32.tps64, 2.0, 0.7);
    EXPECT_NEAR(iridium32.densityGB / mercury32.densityGB, 4.95,
                1.5);
}

TEST(Integration, IridiumChurnTriggersGcAndStaysConsistent)
{
    // Sustained PUT overwrite on the flash-backed server: GC must
    // eventually run; the functional store stays consistent; reads
    // still return the freshest value.
    server::ServerModelParams params;
    params.core = cpu::cortexA7Params();
    params.memory = server::MemoryKind::Flash;
    params.storeMemLimit = 16 * miB;
    // Small flash so churn reaches GC quickly.
    params.flashCapacity = 2048ull * miB;
    mem::FlashController flash(server::flashParamsFor(params, "flash"));
    server::SharedStackDevices shared;
    shared.flash = &flash;
    server::ServerModel node(params, &shared);

    node.populate(200, 4096);
    for (int round = 0; round < 12; ++round) {
        for (int i = 0; i < 200; ++i)
            node.put("v4096:" + std::to_string(i), 4096);
    }

    EXPECT_TRUE(node.store().checkConsistency());
    EXPECT_GE(flash.writeAmplification(), 1.0);
    const server::RequestTiming timing = node.get("v4096:5");
    EXPECT_TRUE(timing.hit);
}

TEST(Integration, PerfOracleFeedsConsistentDesigns)
{
    // Same stack config measured twice and solved twice must give
    // identical designs (determinism across the whole pipeline).
    physical::StackConfig stack;
    stack.core = cpu::cortexA7Params();
    stack.coresPerStack = 16;
    stack.withL2 = false;

    config::DesignExplorer explorer;
    const config::ServerDesign a = explorer.solve(
        stack, config::measurePerCorePerf(stack));
    const config::ServerDesign b = explorer.solve(
        stack, config::measurePerCorePerf(stack));
    EXPECT_EQ(a.stacks, b.stacks);
    EXPECT_DOUBLE_EQ(a.tps64, b.tps64);
    EXPECT_DOUBLE_EQ(a.powerAt64BW, b.powerAt64BW);
}

TEST(Integration, EtcMixOnServerModelStaysSubMillisecond)
{
    // A mixed workload against the Mercury timing model: GET-heavy
    // ops from the generator, and a value size per key from a fixed
    // list in the proportions of an ETC-like mix (Atikoglu et al.):
    // 40 % up to 11 B, 30 % up to 100 B, 20 % up to 1 KiB and 10 %
    // in the tail, capped at 64 KiB to keep the test fast.
    server::ServerModelParams params;
    params.core = cpu::cortexA7Params();
    params.withL2 = false;
    params.storeMemLimit = 64 * miB;
    server::ServerModel node(params);

    workload::WorkloadParams wl;
    wl.numKeys = 500;
    wl.getFraction = 0.9;
    wl.seed = 99;
    workload::WorkloadGenerator gen(wl);
    const std::uint32_t sizes[] = {1,  4,   8,   11,   20,
                                   50, 100, 400, 1024, 65536};

    unsigned sub_ms = 0, total = 0;
    for (int i = 0; i < 300; ++i) {
        const workload::Request req = gen.next();
        const std::string key =
            "etc:" + std::to_string(req.keyId);
        const std::uint32_t size =
            sizes[req.keyId % std::size(sizes)];
        const server::RequestTiming timing =
            req.op == workload::Request::Op::Set
                ? node.put(key, size)
                : node.get(key);
        ++total;
        if (timing.rtt < tickMs)
            ++sub_ms;
    }
    EXPECT_GT(static_cast<double>(sub_ms) /
                  static_cast<double>(total),
              0.95);
}

} // anonymous namespace
