/**
 * @file
 * Unit tests for the deterministic fault-injection framework.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/fault.hh"

namespace
{

using namespace mercury;
using fault::FaultInjector;
using fault::FaultKind;

TEST(FaultInjector, SameSeedSameRolls)
{
    FaultInjector a(42), b(42);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(a.roll(0.3), b.roll(0.3));
    EXPECT_EQ(a.nextInterval(tickMs), b.nextInterval(tickMs));
    EXPECT_EQ(a.pick(17), b.pick(17));
    EXPECT_DOUBLE_EQ(a.jitter(0.2), b.jitter(0.2));
}

TEST(FaultInjector, ZeroProbabilityConsumesNoRngState)
{
    FaultInjector with(9), without(9);
    // "with" interleaves a million disabled fault points; the live
    // stream must be unaffected (the zero-cost-off contract).
    for (int i = 0; i < 1000000; ++i)
        EXPECT_FALSE(with.roll(0.0));
    EXPECT_DOUBLE_EQ(with.jitter(0.0), 1.0);
    EXPECT_DOUBLE_EQ(with.jitter(-1.0), 1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(with.roll(0.5), without.roll(0.5));
}

TEST(FaultInjector, CertainProbabilityConsumesNoRngState)
{
    FaultInjector with(9), without(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(with.roll(1.0));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(with.roll(0.5), without.roll(0.5));
}

TEST(FaultInjector, RollFrequencyTracksProbability)
{
    FaultInjector injector(1234);
    int fired = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        fired += injector.roll(0.05) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(fired) / trials, 0.05, 0.005);
}

TEST(FaultInjector, JitterStaysInBand)
{
    FaultInjector injector(5);
    for (int i = 0; i < 10000; ++i) {
        const double j = injector.jitter(0.2);
        EXPECT_GE(j, 0.8);
        EXPECT_LE(j, 1.2);
    }
}

TEST(FaultInjector, ScheduledFaultsPopInTimeOrder)
{
    FaultInjector injector(1);
    injector.schedule(30, FaultKind::NodeRestart, "node1");
    injector.schedule(10, FaultKind::NodeCrash, "node1");
    injector.schedule(10, FaultKind::NodeCrash, "node2");

    EXPECT_EQ(injector.pendingScheduled(), 3u);

    // Nothing due before its tick.
    EXPECT_FALSE(injector.popDue(5).has_value());

    auto first = injector.popDue(100);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->at, 10u);
    EXPECT_EQ(first->target, "node1");  // insertion order on ties

    auto second = injector.popDue(100);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->target, "node2");

    auto third = injector.popDue(100);
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->at, 30u);
    EXPECT_EQ(third->kind, FaultKind::NodeRestart);

    EXPECT_FALSE(injector.popDue(100).has_value());
    EXPECT_EQ(injector.pendingScheduled(), 0u);
}

TEST(FaultInjector, TimelineDigestMatchesForEqualHistories)
{
    FaultInjector a(3), b(3);
    EXPECT_EQ(a.timelineDigest(), b.timelineDigest());

    a.record(100, FaultKind::PacketLoss, "net0", 4);
    b.record(100, FaultKind::PacketLoss, "net0", 4);
    EXPECT_EQ(a.timelineDigest(), b.timelineDigest());
    EXPECT_EQ(a.faultCount(), 1u);

    // Any field difference changes the digest.
    FaultInjector c(3);
    c.record(100, FaultKind::PacketLoss, "net0", 5);
    EXPECT_NE(a.timelineDigest(), c.timelineDigest());

    FaultInjector d(3);
    d.record(100, FaultKind::MacBufferDrop, "net0", 4);
    EXPECT_NE(a.timelineDigest(), d.timelineDigest());
}

TEST(FaultInjector, KindNamesAreStable)
{
    EXPECT_STREQ(fault::kindName(FaultKind::PacketLoss),
                 "packet-loss");
    EXPECT_STREQ(fault::kindName(FaultKind::FlashBadBlock),
                 "flash-bad-block");
    EXPECT_STREQ(fault::kindName(FaultKind::NodeRestart),
                 "node-restart");
}

} // anonymous namespace
