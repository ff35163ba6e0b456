/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/latency_summary.hh"
#include "sim/stats.hh"

namespace
{

using namespace mercury::stats;

TEST(ScalarStat, AccumulatesAndResets)
{
    StatGroup group("g");
    Scalar s(&group, "requests", "number of requests");

    ++s;
    s += 4.0;
    EXPECT_DOUBLE_EQ(s.value(), 5.0);
    s -= 2.0;
    EXPECT_DOUBLE_EQ(s.value(), 3.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(ScalarStat, AssignmentSetsGaugeValue)
{
    StatGroup group("g");
    Scalar s(&group, "gauge", "a gauge");
    s = 123.5;
    EXPECT_DOUBLE_EQ(s.value(), 123.5);
}

TEST(StatGroup, FormatIncludesHierarchy)
{
    StatGroup root("server");
    StatGroup child("core0", &root);
    Scalar s(&child, "instructions", "instructions executed");
    s += 42;

    std::string text;
    bool first = true;
    root.formatJson(text, "", first);
    EXPECT_EQ(text, "\"server.core0.instructions\":42");
}

TEST(StatGroup, ResetStatsRecurses)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Scalar a(&root, "a", "a");
    Scalar b(&child, "b", "b");
    a += 1;
    b += 2;
    root.resetStats();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Registry, WriteJsonStringAndStreamAgree)
{
    Registry registry("reg");
    StatGroup group("g", &registry);
    Scalar a(&group, "a", "a stat");
    Counter c(&group, "c", "a counter");
    a += 1.5;
    c += 7;

    std::ostringstream os;
    registry.writeJson(os);

    std::string text;
    registry.writeJson(text);
    EXPECT_EQ(os.str(), text);
    EXPECT_EQ(text.front(), '{');
    EXPECT_EQ(text.back(), '\n');
    EXPECT_NE(text.find("\"reg.g.a\":1.5"), std::string::npos);
}

TEST(Registry, RepeatedDumpsReuseTheBuffer)
{
    Registry registry("reg");
    Scalar a(&registry, "a", "a stat");

    std::ostringstream first;
    registry.writeJson(first);
    for (int i = 0; i < 100; ++i) {
        a += 1;
        std::ostringstream os;
        registry.writeJson(os);
    }
    registry.resetStats();
    std::ostringstream last;
    registry.writeJson(last);
    EXPECT_EQ(first.str(), last.str())
        << "buffer reuse must not leak bytes between dumps";
}

TEST(LatencySummary, ReadsExactOrderStatistics)
{
    using mercury::tickMs;
    using mercury::tickUs;
    // Unsorted input; the quantile index is floor(q * (n - 1)).
    const LatencySummary s({3 * tickMs, 1 * tickUs, 2 * tickMs,
                            500 * tickUs});
    EXPECT_DOUBLE_EQ(s.meanUs(), (3000.0 + 1.0 + 2000.0 + 500.0) / 4);
    EXPECT_DOUBLE_EQ(s.quantileUs(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantileUs(0.5), 500.0);
    EXPECT_DOUBLE_EQ(s.quantileUs(0.99), 2000.0);
    EXPECT_DOUBLE_EQ(s.quantileUs(1.0), 3000.0);
    EXPECT_DOUBLE_EQ(s.subMsFraction(), 0.5);

    // A run that served nothing reports zeros, not NaN.
    const LatencySummary empty({});
    EXPECT_EQ(empty.meanUs(), 0.0);
    EXPECT_EQ(empty.quantileUs(0.99), 0.0);
    EXPECT_EQ(empty.subMsFraction(), 0.0);
}

} // anonymous namespace
