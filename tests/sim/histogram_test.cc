/**
 * @file
 * Unit tests for stats::LatencyHistogram: exact quantiles within the
 * precision range, the relative-error bound above it, overflow
 * behaviour, reset, and the zero-allocation guarantee of the
 * record() hot path.
 */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "alloc_probe.hh"
#include "sim/contract.hh"
#include "sim/stats.hh"

namespace
{

using mercury::stats::LatencyHistogram;

/** Stats require a parent group; give every test a scratch one. */
class LatencyHistogramTest : public ::testing::Test
{
  protected:
    mercury::stats::StatGroup group{"g"};
};


TEST_F(LatencyHistogramTest, ExactQuantilesBelowPrecisionRange)
{
    // Default precision (7 bits): every value below 256 has its own
    // bucket, so nearest-rank quantiles are exact.
    LatencyHistogram hist(&group, "h", "");
    for (std::uint64_t v = 1; v <= 100; ++v)
        hist.record(v);

    EXPECT_EQ(hist.count(), 100u);
    EXPECT_EQ(hist.totalSum(), 5050u);
    EXPECT_EQ(hist.minValue(), 1u);
    EXPECT_EQ(hist.maxValue(), 100u);
    EXPECT_EQ(hist.percentile(0.0), 1u);
    EXPECT_EQ(hist.percentile(0.50), 50u);
    EXPECT_EQ(hist.percentile(0.90), 90u);
    EXPECT_EQ(hist.percentile(0.99), 99u);
    EXPECT_EQ(hist.percentile(0.999), 100u);
    EXPECT_EQ(hist.percentile(1.0), 100u);
}

TEST_F(LatencyHistogramTest, ExactQuantilesKnownDistribution)
{
    // 10 x value 10, 85 x value 20, 5 x value 250: p50/p95 sit on
    // the bucket-per-value range, so every quantile is exact.
    LatencyHistogram hist(&group, "h", "");
    hist.record(10, 10);
    hist.record(20, 85);
    hist.record(250, 5);

    EXPECT_EQ(hist.count(), 100u);
    EXPECT_EQ(hist.percentile(0.05), 10u);
    EXPECT_EQ(hist.percentile(0.10), 10u);
    EXPECT_EQ(hist.percentile(0.11), 20u);
    EXPECT_EQ(hist.percentile(0.95), 20u);
    EXPECT_EQ(hist.percentile(0.96), 250u);
    EXPECT_EQ(hist.percentile(0.999), 250u);
}

TEST_F(LatencyHistogramTest, RelativeErrorBoundAboveExactRange)
{
    // Above 2^(P+1) a quantile returns the bucket's lowest value,
    // which undershoots by at most 2^-P relative.
    LatencyHistogram hist(&group, "h", "");
    const std::uint64_t mid = 1'000'003;
    hist.record(100);
    hist.record(mid);
    hist.record(200'000'033);

    const std::uint64_t p50 = hist.percentile(0.50);
    EXPECT_LE(p50, mid);
    const double rel = static_cast<double>(mid - p50) /
                       static_cast<double>(mid);
    EXPECT_LE(rel, 1.0 / 128.0);

    // Extremes stay exact: clamping to the recorded range pins them.
    EXPECT_EQ(hist.percentile(0.0), 100u);
    EXPECT_EQ(hist.percentile(1.0), 200'000'033u);
}

TEST_F(LatencyHistogramTest, WeightedRecordMatchesLoop)
{
    LatencyHistogram weighted(&group, "w", "");
    LatencyHistogram looped(&group, "l", "");
    weighted.record(5, 1000);
    for (int i = 0; i < 1000; ++i)
        looped.record(5);

    EXPECT_EQ(weighted.count(), looped.count());
    EXPECT_EQ(weighted.totalSum(), looped.totalSum());
    EXPECT_EQ(weighted.percentile(0.5), looped.percentile(0.5));
    EXPECT_EQ(weighted.percentile(0.999), looped.percentile(0.999));
}

TEST_F(LatencyHistogramTest, OverflowBucket)
{
    // 16-bit ceiling: anything 2^16 or wider lands in the overflow
    // bucket and quantiles falling there report the recorded max.
    LatencyHistogram hist(&group, "h", "", 7, 16);
    hist.record(65535);   // widest regular value
    hist.record(65536);   // first overflow value
    hist.record(100'000);

    EXPECT_EQ(hist.count(), 3u);
    EXPECT_EQ(hist.overflowCount(), 2u);
    EXPECT_EQ(hist.maxValue(), 100'000u);
    EXPECT_EQ(hist.percentile(0.33), 65535u);
    EXPECT_EQ(hist.percentile(0.67), 100'000u);
    EXPECT_EQ(hist.percentile(1.0), 100'000u);
}

/** Deterministic 64-bit mixer (splitmix64) for test inputs. */
std::uint64_t
mix(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TEST_F(LatencyHistogramTest, ResetClearsEverything)
{
    LatencyHistogram hist(&group, "h", "", 7, 16);
    hist.record(3);
    hist.record(1 << 20);  // overflow
    hist.reset();

    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.totalSum(), 0u);
    EXPECT_EQ(hist.overflowCount(), 0u);
    EXPECT_EQ(hist.minValue(), 0u);
    EXPECT_EQ(hist.maxValue(), 0u);

    hist.record(7);
    EXPECT_EQ(hist.percentile(0.5), 7u);
}

TEST_F(LatencyHistogramTest, RecordHotPathNeverAllocates)
{
    LatencyHistogram hist(&group, "h", "");

    const std::uint64_t before = mercuryAllocCalls.load();
    std::uint64_t state = 42;
    std::uint64_t expected = 0;
    for (unsigned i = 0; i < 100'000; ++i) {
        hist.record(mix(state) >> (i % 64), 1 + i % 3);
        expected += 1 + i % 3;
    }
    const std::uint64_t after = mercuryAllocCalls.load();

    EXPECT_EQ(before, after)
        << "record() allocated on the hot path";
    EXPECT_EQ(hist.count(), expected);
}

TEST_F(LatencyHistogramTest, QuantileQueriesNeverAllocate)
{
    LatencyHistogram hist(&group, "h", "");
    std::uint64_t state = 7;
    for (unsigned i = 0; i < 10'000; ++i)
        hist.record(mix(state) >> (i % 48));

    const std::uint64_t before = mercuryAllocCalls.load();
    std::uint64_t sink = 0;
    for (double p = 0.0; p <= 1.0; p += 0.001)
        sink += hist.percentile(p);
    const std::uint64_t after = mercuryAllocCalls.load();

    EXPECT_EQ(before, after);
    EXPECT_GT(sink, 0u);
}

} // anonymous namespace
