/**
 * @file
 * Tests for the baseline (Xeon memcached + TSSP) models.
 */

#include <gtest/gtest.h>

#include "baseline/baseline.hh"

namespace
{

using namespace mercury::baseline;

TEST(Baseline, PublishedRowsReproduceExactly)
{
    const BaselineServer v14 = memcachedBaseline(MemcachedVersion::V14);
    EXPECT_EQ(v14.cores, 6u);
    EXPECT_DOUBLE_EQ(v14.memoryGB, 12.0);
    EXPECT_NEAR(v14.powerW, 143.0, 0.5);
    EXPECT_NEAR(v14.tps / 1e6, 0.41, 0.001);

    const BaselineServer v16 = memcachedBaseline(MemcachedVersion::V16);
    EXPECT_EQ(v16.cores, 4u);
    EXPECT_NEAR(v16.powerW, 159.0, 0.5);
    EXPECT_NEAR(v16.tps / 1e6, 0.52, 0.001);

    const BaselineServer bags =
        memcachedBaseline(MemcachedVersion::Bags);
    EXPECT_EQ(bags.cores, 16u);
    EXPECT_NEAR(bags.powerW, 285.0, 0.5);
    EXPECT_NEAR(bags.tps / 1e6, 3.15, 0.001);
}

TEST(Baseline, EfficiencyMatchesTable4)
{
    // TPS/W: 2.9 / 3.29 / 11.1 KTPS/W.
    EXPECT_NEAR(memcachedBaseline(MemcachedVersion::V14).tpsPerWatt()
                / 1000.0, 2.9, 0.1);
    EXPECT_NEAR(memcachedBaseline(MemcachedVersion::V16).tpsPerWatt()
                / 1000.0, 3.29, 0.1);
    EXPECT_NEAR(memcachedBaseline(MemcachedVersion::Bags).tpsPerWatt()
                / 1000.0, 11.1, 0.2);
}

TEST(Baseline, TpsPerGBMatchesTable4)
{
    // 34.2 / 4.1 / 24.6 KTPS/GB.
    EXPECT_NEAR(memcachedBaseline(MemcachedVersion::V14).tpsPerGB()
                / 1000.0, 34.2, 0.3);
    EXPECT_NEAR(memcachedBaseline(MemcachedVersion::V16).tpsPerGB()
                / 1000.0, 4.1, 0.1);
    EXPECT_NEAR(memcachedBaseline(MemcachedVersion::Bags).tpsPerGB()
                / 1000.0, 24.6, 0.3);
}

TEST(Baseline, PowerModelComponents)
{
    // More cores and more DRAM both cost power.
    EXPECT_GT(xeonServerPowerW(16, 128), xeonServerPowerW(4, 128));
    EXPECT_GT(xeonServerPowerW(4, 128), xeonServerPowerW(4, 12));
}

TEST(Baseline, TsspRowMatchesLiterature)
{
    const BaselineServer tssp = tsspReference();
    EXPECT_NEAR(tssp.tps / 1e6, 0.28, 0.001);
    EXPECT_DOUBLE_EQ(tssp.powerW, 16.0);
    // 17.6 KTPS/W as reported by Lim et al.
    EXPECT_NEAR(tssp.tpsPerWatt() / 1000.0, 17.5, 0.2);
}

} // anonymous namespace
