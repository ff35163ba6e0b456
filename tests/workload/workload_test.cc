/**
 * @file
 * Unit tests for workload generation.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/workload.hh"

namespace
{

using namespace mercury;
using namespace mercury::workload;

TEST(ZipfGenerator, RanksStayInRange)
{
    Rng rng(1);
    ZipfGenerator zipf(1000, 0.99);
    for (int i = 0; i < 100000; ++i)
        EXPECT_LT(zipf.next(rng), 1000u);
}

TEST(ZipfGenerator, HeadIsHot)
{
    Rng rng(2);
    ZipfGenerator zipf(100000, 0.99);
    std::uint64_t head_hits = 0;
    const int samples = 100000;
    for (int i = 0; i < samples; ++i) {
        if (zipf.next(rng) < 100)
            ++head_hits;
    }
    // With theta=0.99, the top 0.1% of keys draw a large share.
    EXPECT_GT(head_hits, static_cast<std::uint64_t>(samples) / 4);
}

TEST(ZipfGenerator, RankZeroMostPopular)
{
    Rng rng(3);
    ZipfGenerator zipf(1000, 0.9);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 200000; ++i)
        ++counts[zipf.next(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], counts[500]);
}

TEST(ZipfGenerator, LowerThetaIsFlatter)
{
    Rng rng_a(4), rng_b(4);
    ZipfGenerator skewed(10000, 0.99);
    ZipfGenerator flat(10000, 0.5);
    int skewed_head = 0, flat_head = 0;
    for (int i = 0; i < 50000; ++i) {
        if (skewed.next(rng_a) == 0)
            ++skewed_head;
        if (flat.next(rng_b) == 0)
            ++flat_head;
    }
    EXPECT_GT(skewed_head, flat_head);
}

TEST(ValueSizeDist, FixedIsFixed)
{
    WorkloadParams p;
    p.valueSize = ValueSizeDist::fixed(1024);
    p.seed = 5;
    WorkloadGenerator gen(p);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gen.next().valueBytes, 1024u);
}

TEST(WorkloadGenerator, DeterministicForSeed)
{
    WorkloadParams p;
    p.seed = 77;
    WorkloadGenerator a(p), b(p);
    for (int i = 0; i < 1000; ++i) {
        Request ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.op, rb.op);
        EXPECT_EQ(ra.keyId, rb.keyId);
        EXPECT_EQ(ra.valueBytes, rb.valueBytes);
    }
}

TEST(WorkloadGenerator, GetFractionRespected)
{
    WorkloadParams p;
    p.getFraction = 0.9;
    WorkloadGenerator gen(p);
    int gets = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        if (gen.next().op == Request::Op::Get)
            ++gets;
    }
    EXPECT_NEAR(static_cast<double>(gets) / n, 0.9, 0.01);
}

TEST(WorkloadGenerator, KeysCoverSpace)
{
    WorkloadParams p;
    p.numKeys = 128;
    WorkloadGenerator gen(p);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i)
        seen.insert(gen.next().keyId);
    EXPECT_EQ(seen.size(), 128u);
}

TEST(WorkloadGenerator, KeyStringsAreCanonical)
{
    EXPECT_EQ(WorkloadGenerator::keyFor(0),
              "key:0000000000000000");
    EXPECT_EQ(WorkloadGenerator::keyFor(0xdeadbeef),
              "key:00000000deadbeef");
    EXPECT_NE(WorkloadGenerator::keyFor(1),
              WorkloadGenerator::keyFor(2));
}

TEST(PoissonArrivals, MeanRateMatches)
{
    PoissonArrivals arrivals(10000.0, 9);  // 10k req/s
    Tick now = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        now = arrivals.next(now);
    const double elapsed_sec = ticksToSeconds(now);
    const double rate = n / elapsed_sec;
    EXPECT_NEAR(rate, 10000.0, 200.0);
}

TEST(PoissonArrivals, StrictlyIncreasing)
{
    PoissonArrivals arrivals(1e6, 10);
    Tick now = 0;
    for (int i = 0; i < 1000; ++i) {
        const Tick next = arrivals.next(now);
        EXPECT_GT(next, now);
        now = next;
    }
}

} // anonymous namespace
