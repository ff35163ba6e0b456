/**
 * @file
 * Unit tests for the network path model.
 */

#include <gtest/gtest.h>

#include "net/network.hh"

namespace
{

using namespace mercury;
using namespace mercury::net;

TEST(TcpSegmenter, SmallPayloadIsOnePacket)
{
    TcpSegmenter seg(NetParams{});
    EXPECT_EQ(seg.numSegments(0), 1u);
    EXPECT_EQ(seg.numSegments(64), 1u);
    EXPECT_EQ(seg.numSegments(1448), 1u);
}

TEST(TcpSegmenter, LargePayloadSplitsAtMss)
{
    TcpSegmenter seg(NetParams{});
    EXPECT_EQ(seg.numSegments(1449), 2u);
    EXPECT_EQ(seg.numSegments(64 * kiB), 46u);
    EXPECT_EQ(seg.numSegments(1 * miB), 725u);
}

TEST(TcpSegmenter, SegmentSizesSumToPayload)
{
    TcpSegmenter seg(NetParams{});
    for (std::uint64_t payload : {0ull, 64ull, 1448ull, 5000ull,
                                  1048576ull}) {
        auto sizes = seg.segmentSizes(payload);
        std::uint64_t total = 0;
        for (unsigned s : sizes) {
            EXPECT_LE(s, 1448u);
            total += s;
        }
        EXPECT_EQ(total, payload);
        EXPECT_EQ(sizes.size(), seg.numSegments(payload));
    }
}

TEST(TcpSegmenter, WireBytesIncludePerPacketOverhead)
{
    NetParams p = NetParams{};
    TcpSegmenter seg(p);
    EXPECT_EQ(seg.wireBytes(64), 64 + p.perPacketOverhead);
    EXPECT_EQ(seg.wireBytes(2896),
              2896 + 2ull * p.perPacketOverhead);
}

TEST(NetworkPath, SmallMessageLatencyIsFixedCostsPlusSerialization)
{
    NetParams p = NetParams{};
    NetworkPath path(p);
    auto r = path.deliver(64, 0);
    const Tick wire = secondsToTicks((64.0 + p.perPacketOverhead) /
                                     p.linkBandwidth);
    EXPECT_EQ(r.completion, wire + p.phyLatency + p.macLatency +
              p.propagation);
    EXPECT_EQ(r.packets, 1u);
}

TEST(NetworkPath, LargeMessagePaysSerializationPerByte)
{
    NetworkPath path(NetParams{});
    auto small = path.deliver(64, 0);
    NetworkPath path2(NetParams{});
    auto large = path2.deliver(1 * miB, 0);
    // 1 MiB at 1.25 GB/s is ~839 us of serialization alone.
    EXPECT_GT(large.completion, small.completion + 800 * tickUs);
    EXPECT_EQ(large.packets, 725u);
}

TEST(NetworkPath, BackToBackMessagesQueueOnTheLink)
{
    NetworkPath path(NetParams{});
    auto first = path.deliver(1 * miB, 0);
    auto second = path.deliver(64, 0);
    // The second message waits for the first's serialization.
    EXPECT_GT(second.completion, first.completion - 10 * tickUs);
}

TEST(NetworkPath, IndependentPathsDoNotInterfere)
{
    NetworkPath a(NetParams{});
    NetworkPath b(NetParams{});
    a.deliver(1 * miB, 0);
    auto r = b.deliver(64, 0);
    EXPECT_LT(r.completion, 10 * tickUs);
}

TEST(NetworkPath, UtilizationTracksOfferedLoad)
{
    NetworkPath path(NetParams{});
    // Offer all messages at once: the link serializes them back to
    // back and should run near line rate.
    Tick last = 0;
    for (int i = 0; i < 100; ++i)
        last = path.deliver(1448, 0).completion;
    const double util = path.utilization(last);
    EXPECT_GT(util, 0.8);
    EXPECT_LE(util, 1.0);
}

TEST(NetworkPath, AttachedInjectorWithZeroLossIsBitIdentical)
{
    // The zero-cost-off contract: an attached injector with zero
    // probabilities must not perturb timing or counters.
    NetworkPath clean(NetParams{});
    NetworkPath armed(NetParams{});
    mercury::fault::FaultInjector injector(1);
    armed.setFaultInjector(&injector);

    Tick now = 0;
    for (int i = 0; i < 50; ++i) {
        const auto a = clean.deliver(8000 + i * 517, now);
        const auto b = armed.deliver(8000 + i * 517, now);
        ASSERT_EQ(a.completion, b.completion);
        ASSERT_EQ(a.wireBytes, b.wireBytes);
        now = a.completion + 5 * tickUs;
    }
    EXPECT_EQ(armed.droppedPackets(), 0u);
    EXPECT_EQ(armed.retransmittedPackets(), 0u);
    EXPECT_EQ(injector.faultCount(), 0u);
}

TEST(NetworkPath, PacketLossPaysRetransmissionTimeouts)
{
    NetParams params = NetParams{};
    params.lossProbability = 1.0;
    params.maxRetransmits = 3;
    NetworkPath path(params);
    mercury::fault::FaultInjector injector(2);
    path.setFaultInjector(&injector);

    // One segment, certain loss: it is lost maxRetransmits times and
    // waits out rtoMin * (1 + 2 + 4) of exponential backoff.
    const auto r = path.deliver(100, 0);
    EXPECT_EQ(r.drops, 3u);
    EXPECT_EQ(r.retransmits, 3u);
    EXPECT_GE(r.completion, 7 * params.rtoMin);
    // Retransmitted bytes ride the wire again.
    EXPECT_GT(r.wireBytes,
              path.segmenter().wireBytes(100));
    EXPECT_EQ(injector.faultCount(), 3u);
}

TEST(NetworkPath, LossTimelineIsDeterministicPerSeed)
{
    NetParams params = NetParams{};
    params.lossProbability = 0.3;
    NetworkPath a(params), b(params);
    mercury::fault::FaultInjector ia(77), ib(77);
    a.setFaultInjector(&ia);
    b.setFaultInjector(&ib);

    Tick now = 0;
    for (int i = 0; i < 200; ++i) {
        const auto ra = a.deliver(4000, now);
        const auto rb = b.deliver(4000, now);
        ASSERT_EQ(ra.completion, rb.completion);
        ASSERT_EQ(ra.drops, rb.drops);
        now += 50 * tickUs;
    }
    EXPECT_EQ(ia.timelineDigest(), ib.timelineDigest());
    EXPECT_GT(a.droppedPackets(), 0u);
}

TEST(NetworkPath, BufferOverflowIsCountedEvenFaultFree)
{
    // A burst far beyond the 128 KiB MAC buffer: the overflow is
    // accounted, but nothing is dropped or slowed.
    NetworkPath path(NetParams{});
    path.deliver(1 * miB, 0);
    const auto r = path.deliver(1 * miB, 0);
    EXPECT_GT(path.bufferDropPackets(), 0u);
    EXPECT_EQ(path.peakBufferBytes(),
              path.params().macBufferBytes);
    EXPECT_EQ(r.drops, 0u);
    EXPECT_EQ(path.droppedPackets(), 0u);
}

TEST(NetworkPath, TenGigLineRateForBigTransfers)
{
    // Property: sustained throughput approaches but never exceeds
    // 10 Gb/s.
    NetworkPath path(NetParams{});
    Tick now = 0;
    const int messages = 50;
    for (int i = 0; i < messages; ++i)
        now = path.deliver(256 * kiB, now).completion;
    const double goodput =
        static_cast<double>(messages) * 256 * kiB /
        ticksToSeconds(now);
    EXPECT_LT(goodput, 1.25e9);
    EXPECT_GT(goodput, 1.0e9);
}

} // anonymous namespace
