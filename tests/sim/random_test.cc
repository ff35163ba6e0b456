/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/random.hh"

namespace
{

using mercury::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(777);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next());
    a.seed(777);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, NextIntStaysInBounds)
{
    Rng rng(42);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextInt(17), 17u);
}

TEST(Rng, NextIntCoversAllResidues)
{
    Rng rng(42);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++seen[rng.nextInt(10)];
    for (int count : seen)
        EXPECT_GT(count, 0);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(99);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NextDoubleMeanNearHalf)
{
    Rng rng(5);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBoolRespectsProbability)
{
    Rng rng(11);
    int trues = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (rng.nextBool(0.25))
            ++trues;
    }
    EXPECT_NEAR(static_cast<double>(trues) / n, 0.25, 0.01);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(21);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, ExponentialAlwaysPositive)
{
    Rng rng(23);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(rng.nextExponential(1.0), 0.0);
}

} // anonymous namespace
