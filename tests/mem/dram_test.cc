/**
 * @file
 * Unit tests for the DRAM timing model.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

/** The value of statistic @p name in @p dram's group. */
double
stat(const DramModel &dram, const char *name)
{
    const auto *scalar = dynamic_cast<const stats::Scalar *>(
        dram.statGroup().find(name));
    EXPECT_NE(scalar, nullptr) << name;
    return scalar ? scalar->value() : -1.0;
}

TEST(DramModel, StackedPresetMatchesPaper)
{
    DramParams p = stackedDramParams();
    EXPECT_EQ(p.numPorts, 16u);
    EXPECT_EQ(p.banksPerPort, 8u);
    EXPECT_EQ(p.capacity, 4 * giB);
    EXPECT_EQ(p.arrayLatency, 11 * tickNs);
    EXPECT_DOUBLE_EQ(p.portBandwidth, 6.25e9);

    DramModel dram(p);
    EXPECT_DOUBLE_EQ(dram.peakBandwidth(), 100e9);
    EXPECT_EQ(dram.capacityBytes(), 4 * giB);
}

TEST(DramModel, ClosedPageAccessPaysArrayLatencyPlusTransfer)
{
    DramModel dram(stackedDramParams());
    const Tick done = dram.access(AccessType::Read, 0, 64, 0);
    // 11 ns array + 64 B / 6.25 GB/s = 10.24 ns transfer.
    const Tick expected = 11 * tickNs + secondsToTicks(64 / 6.25e9);
    EXPECT_EQ(done, expected);
}

TEST(DramModel, ClosedPageNeverRowHits)
{
    DramModel dram(stackedDramParams());
    Tick now = 0;
    for (int i = 0; i < 10; ++i)
        now = dram.access(AccessType::Read, 0x100, 64, now);
    EXPECT_EQ(stat(dram, "rowHits"), 0.0);
    EXPECT_EQ(stat(dram, "rowMisses"), 10.0);
}

TEST(DramModel, OpenPageHitsOnSameRow)
{
    DramParams p = stackedDramParams();
    p.pagePolicy = PagePolicy::Open;
    DramModel dram(p);

    Tick now = dram.access(AccessType::Read, 0x100, 64, 0);
    const Tick second = dram.access(AccessType::Read, 0x140, 64, now);
    // Second access is a row hit: pays rowHitLatency, not array.
    EXPECT_EQ(second - now, p.rowHitLatency +
              secondsToTicks(64 / p.portBandwidth));
    EXPECT_EQ(stat(dram, "rowHits"), 1.0);
    EXPECT_EQ(stat(dram, "rowMisses"), 1.0);
}

TEST(DramModel, OpenPageMissesAcrossRows)
{
    DramParams p = stackedDramParams();
    p.pagePolicy = PagePolicy::Open;
    DramModel dram(p);

    Tick now = dram.access(AccessType::Read, 0, 64, 0);
    // Next row within the same bank.
    now = dram.access(AccessType::Read, p.rowBytes, 64, now);
    EXPECT_EQ(stat(dram, "rowHits"), 0.0);
    EXPECT_EQ(stat(dram, "rowMisses"), 2.0);
}

TEST(DramModel, SameBankAccessesSerialize)
{
    DramModel dram(stackedDramParams());
    // Two simultaneous accesses to the same bank.
    const Tick first = dram.access(AccessType::Read, 0, 64, 0);
    const Tick second = dram.access(AccessType::Read, 64, 64, 0);
    EXPECT_GE(second, 2 * first);
}

TEST(DramModel, DifferentPortsProceedInParallel)
{
    DramParams p = stackedDramParams();
    DramModel dram(p);
    const std::uint64_t port_size = p.capacity / p.numPorts;

    const Tick a = dram.access(AccessType::Read, 0, 64, 0);
    const Tick b = dram.access(AccessType::Read, port_size, 64, 0);
    EXPECT_EQ(a, b) << "independent ports must not serialize";
}

TEST(DramModel, QueueingDelayIsAccounted)
{
    DramModel dram(stackedDramParams());
    dram.access(AccessType::Read, 0, 64, 0);
    // Issued while the port is still busy; must start late.
    const Tick done =
        dram.access(AccessType::Read, 4096 * 64, 64, 1 * tickNs);
    EXPECT_GT(done, 11 * tickNs + 11 * tickNs);
}

TEST(DramModel, BytesTransferredAccumulates)
{
    DramModel dram(stackedDramParams());
    dram.access(AccessType::Read, 0, 64, 0);
    dram.access(AccessType::Write, 4096, 64, tickUs);
    EXPECT_EQ(stat(dram, "bytesRead"), 64.0);
    EXPECT_EQ(stat(dram, "bytesWritten"), 64.0);
}

TEST(DramModel, LatencyOverrideSweepsLikeThePaper)
{
    // Figure 5 sweeps DRAM latency from 10 to 100 ns.
    for (Tick lat_ns : {10, 30, 50, 100}) {
        DramParams p = stackedDramParams();
        p.arrayLatency = lat_ns * tickNs;
        DramModel dram(p);
        const Tick done = dram.access(AccessType::Read, 0, 64, 0);
        EXPECT_EQ(done, lat_ns * tickNs +
                  secondsToTicks(64 / p.portBandwidth));
    }
}

TEST(DramModel, PresetCatalogMatchesTable2)
{
    EXPECT_DOUBLE_EQ(ddr3Params().portBandwidth, 10.7e9);
    EXPECT_EQ(ddr3Params().capacity, 2 * giB);
    EXPECT_DOUBLE_EQ(ddr4Params().portBandwidth, 21.3e9);
    EXPECT_DOUBLE_EQ(lpddr3Params().portBandwidth, 6.4e9);
    EXPECT_EQ(lpddr3Params().capacity, 512 * miB);

    DramModel hmc(hmc1Params());
    EXPECT_DOUBLE_EQ(hmc.peakBandwidth(), 128e9);
    DramModel wide_io(wideIoParams());
    EXPECT_DOUBLE_EQ(wide_io.peakBandwidth(), 12.8e9);
    DramModel octopus(octopusParams());
    EXPECT_DOUBLE_EQ(octopus.peakBandwidth(), 50e9);
}

TEST(DramModel, RejectsZeroSizeAccess)
{
    contract::ScopedContractThrow guard;
    DramModel dram(stackedDramParams());
    EXPECT_THROW(dram.access(AccessType::Read, 0, 0, 0),
                 contract::ContractViolation);
}

class DramBandwidthTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(DramBandwidthTest, SustainedBandwidthApproachesPortPeak)
{
    // Property: back-to-back reads on one port cannot exceed the
    // configured port bandwidth, and large transfers approach it.
    DramParams p = stackedDramParams();
    DramModel dram(p);
    const unsigned size = GetParam();

    Tick now = 0;
    const int accesses = 200;
    for (int i = 0; i < accesses; ++i)
        now = dram.access(AccessType::Read, (i * 64) % (32 * kiB),
                          size, now);

    const double bytes = static_cast<double>(accesses) * size;
    const double bw = bytes / ticksToSeconds(now);
    EXPECT_LE(bw, p.portBandwidth * 1.001);
    if (size >= 1024) {
        // With large bursts the fixed array latency amortizes away.
        EXPECT_GE(bw, p.portBandwidth * 0.8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DramBandwidthTest,
                         ::testing::Values(64u, 256u, 1024u, 4096u));


TEST(DramModel, RefreshWindowsDelayAccesses)
{
    DramParams p = stackedDramParams();
    p.modelRefresh = true;
    DramModel dram(p);

    // An access issued right at a refresh boundary is pushed past
    // the blackout window.
    const Tick done = dram.access(AccessType::Read, 0, 64, 0);
    EXPECT_GE(done, p.refreshDuration + p.arrayLatency);

    // One issued mid-interval proceeds normally.
    const Tick mid = 3 * tickUs;
    const Tick done2 = dram.access(AccessType::Read, 64 * miB, 64,
                                   mid);
    EXPECT_EQ(done2 - mid, dram.lineReadLatency());
}

TEST(DramModel, RefreshNeedsTrfcShorterThanTrefi)
{
    contract::ScopedContractThrow guard;
    DramParams p = stackedDramParams();
    p.modelRefresh = true;

    // tREFI 0 would divide by zero in access().
    p.refreshInterval = 0;
    EXPECT_THROW(DramModel{p}, contract::ContractViolation);

    // A blackout as long as the interval never ends: one delay would
    // land the access in the next window.
    p.refreshInterval = 350 * tickNs;
    p.refreshDuration = 350 * tickNs;
    EXPECT_THROW(DramModel{p}, contract::ContractViolation);
    p.refreshDuration = 400 * tickNs;
    EXPECT_THROW(DramModel{p}, contract::ContractViolation);

    p.refreshDuration = 349 * tickNs;
    EXPECT_NO_THROW(DramModel{p});

    // Unchecked while refresh is off.
    p.modelRefresh = false;
    p.refreshInterval = 0;
    EXPECT_NO_THROW(DramModel{p});
}

TEST(DramModel, RefreshCostsAboutTrfcOverTrefi)
{
    // Sustained random reads lose ~tRFC/tREFI (~4.5%) of
    // throughput to refresh.
    DramParams with = stackedDramParams();
    with.modelRefresh = true;
    DramParams without = stackedDramParams();

    auto run = [](DramModel &dram) {
        Tick now = 0;
        for (int i = 0; i < 20000; ++i)
            now = dram.access(AccessType::Read,
                              (static_cast<Addr>(i) * 8191) %
                                  (256 * miB),
                              64, now);
        return now;
    };
    DramModel a(with), b(without);
    const double ratio = static_cast<double>(run(a)) /
                         static_cast<double>(run(b));
    EXPECT_GT(ratio, 1.01);
    EXPECT_LT(ratio, 1.12);
}

} // anonymous namespace
