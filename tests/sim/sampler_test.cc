/**
 * @file
 * Unit tests for the windowed time-series sampler: window math and
 * boundary conventions, per-window channel reset, ratio semantics,
 * windowed latency percentiles, the interval histogram's reset,
 * determinism, and the zero-allocation steady-state contract.
 */

#include <string>

#include <gtest/gtest.h>

#include "alloc_probe.hh"
#include "sim/sampler.hh"
#include "sim/stats.hh"

namespace
{

using namespace mercury;
using stats::Sampler;

TEST(Sampler, WindowsAnchorAtOriginAndCloseOnBoundaries)
{
    Sampler sampler(100);
    const std::size_t n = sampler.addCounter("n");
    sampler.begin(1000);

    sampler.advanceTo(1000);
    sampler.count(n);
    // An event at exactly t0 + interval belongs to the next window:
    // advanceTo closes every window whose end is <= now.
    sampler.advanceTo(1100);
    sampler.count(n);
    sampler.count(n);
    sampler.finish(1150);

    EXPECT_EQ(sampler.jsonl(),
              "{\"window\":0,\"t0\":1000,\"t1\":1100,\"n\":1}\n"
              "{\"window\":1,\"t0\":1100,\"t1\":1200,\"n\":2}\n");
    EXPECT_EQ(sampler.windowsClosed(), 2u);
}

TEST(Sampler, LabelLeadsEveryLine)
{
    Sampler sampler(100, "series-1");
    sampler.addCounter("n");
    sampler.begin(0);
    sampler.finish(50);

    EXPECT_EQ(sampler.jsonl().rfind(
                  "{\"label\":\"series-1\",\"window\":0,", 0),
              0u);
}

TEST(Sampler, IdleWindowsAreEmittedAsZeroes)
{
    Sampler sampler(100);
    const std::size_t n = sampler.addCounter("n");
    sampler.begin(0);
    sampler.count(n);
    // Jumping across two whole idle windows still emits them: a
    // recovery curve needs the flat zero stretch, not a gap.
    sampler.advanceTo(350);
    sampler.finish(350);

    EXPECT_EQ(sampler.jsonl(),
              "{\"window\":0,\"t0\":0,\"t1\":100,\"n\":1}\n"
              "{\"window\":1,\"t0\":100,\"t1\":200,\"n\":0}\n"
              "{\"window\":2,\"t0\":200,\"t1\":300,\"n\":0}\n"
              "{\"window\":3,\"t0\":300,\"t1\":400,\"n\":0}\n");
}

TEST(Sampler, FinishOnExactBoundaryEmitsNoEmptyTail)
{
    Sampler sampler(100);
    const std::size_t n = sampler.addCounter("n");
    sampler.begin(0);
    sampler.count(n);
    sampler.finish(100);

    EXPECT_EQ(sampler.jsonl(),
              "{\"window\":0,\"t0\":0,\"t1\":100,\"n\":1}\n");

    // finish() is idempotent for the same end.
    sampler.finish(100);
    EXPECT_EQ(sampler.windowsClosed(), 1u);
}

TEST(Sampler, RatioUsesWindowValuesAndWhenEmptyFallback)
{
    Sampler sampler(100);
    const std::size_t ok = sampler.addCounter("ok");
    const std::size_t req = sampler.addCounter("req");
    sampler.addRatio("avail", ok, req, 1.0);
    sampler.begin(0);

    sampler.count(req, 4);
    sampler.count(ok, 2);
    sampler.advanceTo(100);
    // Idle window: zero denominator emits the fallback, because an
    // idle window is a fully available one.
    sampler.finish(150);

    const std::string &out = sampler.jsonl();
    EXPECT_NE(out.find("\"avail\":0.500000"), std::string::npos);
    EXPECT_NE(out.find("\"avail\":1.000000"), std::string::npos);
}

TEST(Sampler, LatencyPercentilesAreWindowedAndReset)
{
    Sampler sampler(100);
    const std::size_t lat = sampler.addLatency("lat");
    sampler.begin(0);

    for (std::uint64_t v = 1; v <= 10; ++v)
        sampler.recordLatency(lat, v * 10);
    sampler.advanceTo(100);
    // Window 1 records nothing: its percentiles must not leak
    // window 0's samples.
    sampler.advanceTo(200);
    sampler.recordLatency(lat, 100);
    sampler.finish(250);

    const std::string &out = sampler.jsonl();
    EXPECT_NE(out.find("\"lat_count\":10,\"lat_p50\":50"),
              std::string::npos);
    EXPECT_NE(out.find("\"lat_count\":0,\"lat_p50\":0"),
              std::string::npos);
    EXPECT_NE(out.find("\"lat_count\":1,\"lat_p50\":100"),
              std::string::npos);
}

TEST(Sampler, IdenticalInputsProduceIdenticalBytes)
{
    auto run = [] {
        Sampler sampler(100, "det");
        const std::size_t n = sampler.addCounter("n");
        const std::size_t lat = sampler.addLatency("lat");
        sampler.begin(7);
        for (Tick t = 7; t < 1000; t += 13) {
            sampler.advanceTo(t);
            sampler.count(n);
            sampler.recordLatency(lat, t % 101);
        }
        sampler.finish(1000);
        return sampler.jsonl();
    };
    EXPECT_EQ(run(), run());
}

// The sampler's latency channels are interval histograms that reset
// at every window boundary: after reset() a histogram reads exactly
// like a fresh one fed the samples recorded since.
TEST(Sampler, IntervalHistogramResetForgetsEverything)
{
    stats::StatGroup root("root");
    stats::LatencyHistogram window(&root, "window", "", 7);
    stats::LatencyHistogram fresh(&root, "fresh", "", 7);

    for (std::uint64_t v = 1; v <= 100; ++v)
        window.record(v);
    window.reset();
    EXPECT_EQ(window.count(), 0u);
    EXPECT_EQ(window.percentile(0.99), 0u);

    for (std::uint64_t v = 200; v <= 300; ++v) {
        window.record(v);
        fresh.record(v);
    }
    EXPECT_EQ(window.count(), fresh.count());
    EXPECT_EQ(window.totalSum(), fresh.totalSum());
    EXPECT_EQ(window.minValue(), fresh.minValue());
    EXPECT_EQ(window.maxValue(), fresh.maxValue());
    for (const double p : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(window.percentile(p), fresh.percentile(p)) << p;
}

TEST(Sampler, SteadyStateSamplingNeverAllocates)
{
    Sampler sampler(100, "steady");
    const std::size_t n = sampler.addCounter("n");
    const std::size_t ok = sampler.addCounter("ok");
    sampler.addRatio("rate", ok, n, 1.0);
    const std::size_t lat = sampler.addLatency("lat");
    sampler.reserve(1 << 20);
    sampler.begin(0);

    // Warm up: the first window close sizes the line scratch.
    for (Tick t = 0; t < 200; t += 10) {
        sampler.advanceTo(t);
        sampler.count(n);
        sampler.count(ok);
        sampler.recordLatency(lat, t % 97);
    }
    sampler.advanceTo(200);

    const std::uint64_t before = mercuryAllocCalls.load();
    for (Tick t = 200; t < 40'000; t += 10) {
        sampler.advanceTo(t);
        sampler.count(n);
        sampler.count(ok);
        sampler.recordLatency(lat, t % 97);
    }
    sampler.advanceTo(40'000);
    const std::uint64_t after = mercuryAllocCalls.load();

    EXPECT_EQ(before, after)
        << "sampler steady state allocated across "
        << sampler.windowsClosed() << " windows";
    EXPECT_GE(sampler.windowsClosed(), 398u);
}

} // anonymous namespace
