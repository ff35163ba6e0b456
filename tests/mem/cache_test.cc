/**
 * @file
 * Unit tests for the set-associative cache and hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/contract.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

CacheParams
tinyCache(unsigned size_kib = 1, unsigned assoc = 2)
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = size_kib * kiB;
    p.assoc = assoc;
    p.lineBytes = 64;
    p.hitLatency = 1 * tickNs;
    return p;
}

TEST(SetAssocCache, MissesWhenEmpty)
{
    SetAssocCache cache(tinyCache());
    EXPECT_FALSE(cache.probe(0x1000).hit);
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST(SetAssocCache, HitsAfterInsert)
{
    SetAssocCache cache(tinyCache());
    cache.insert(0x1000, false);
    EXPECT_TRUE(cache.contains(0x1000));
    // Any address within the same line also hits.
    EXPECT_TRUE(cache.probe(0x103F).hit);
    // The adjacent line does not.
    EXPECT_FALSE(cache.contains(0x1040));
}

TEST(SetAssocCache, LruEvictsLeastRecentlyUsed)
{
    // 1 KiB, 2-way, 64 B lines -> 8 sets. Lines 0, 8, 16 (line
    // numbers) map to set 0.
    SetAssocCache cache(tinyCache(1, 2));
    const Addr a = 0 * 64, b = 8 * 64, c = 16 * 64;

    cache.insert(a, false);
    cache.insert(b, false);
    const SetAssocCache::Probe hit = cache.probe(a);
    ASSERT_TRUE(hit.hit);
    cache.touch(hit, false);  // make b the LRU way

    auto victim = cache.insert(c, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, b);
    EXPECT_TRUE(cache.contains(a));
    EXPECT_TRUE(cache.contains(c));
    EXPECT_FALSE(cache.contains(b));
}

TEST(SetAssocCache, VictimCarriesDirtyBit)
{
    SetAssocCache cache(tinyCache(1, 1));
    const Addr a = 0 * 64, b = 16 * 64;  // same set (16 sets, 1 way)

    cache.insert(a, true);
    auto victim = cache.insert(b, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, a);
    EXPECT_TRUE(victim->dirty);
}

TEST(SetAssocCache, MarkDirtyOnPresentLine)
{
    SetAssocCache cache(tinyCache(1, 1));
    cache.insert(0x0, false);
    // A store hit: touch with the dirty bit.
    const SetAssocCache::Probe hit = cache.probe(0x0);
    ASSERT_TRUE(hit.hit);
    cache.touch(hit, true);

    auto victim = cache.insert(16 * 64, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
}

TEST(SetAssocCache, ReinsertRefreshesWithoutVictim)
{
    SetAssocCache cache(tinyCache(1, 1));
    cache.insert(0x0, false);
    auto victim = cache.insert(0x0, true);
    EXPECT_FALSE(victim.has_value());

    auto evicted = cache.insert(16 * 64, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_TRUE(evicted->dirty) << "re-insert dirty bit must stick";
}

TEST(SetAssocCache, FlushDropsEveryLine)
{
    SetAssocCache cache(tinyCache());
    cache.insert(0x40, false);
    cache.insert(0x80, false);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x40));
    EXPECT_FALSE(cache.contains(0x80));
}

TEST(SetAssocCache, RejectsBadGeometry)
{
    contract::ScopedContractThrow guard;
    CacheParams p = tinyCache();
    p.lineBytes = 48;  // not a power of two
    EXPECT_THROW(SetAssocCache{p}, contract::ContractViolation);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
    {
        DramParams dp = stackedDramParams();
        dp.arrayLatency = 100 * tickNs;  // make memory visible
        dram = std::make_unique<DramModel>(dp);
    }

    HierarchyParams
    params(bool with_l2)
    {
        HierarchyParams hp;
        hp.hasL2 = with_l2;
        return hp;
    }

    std::unique_ptr<DramModel> dram;
};

TEST_F(HierarchyTest, FirstAccessGoesToMemory)
{
    CacheHierarchy h(params(false), dram.get());
    auto r = h.access(CpuAccessKind::Load, 0x1000, 0);
    EXPECT_EQ(r.source, ServicedBy::Memory);
    EXPECT_GE(r.completion, 100 * tickNs);
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    CacheHierarchy h(params(false), dram.get());
    h.access(CpuAccessKind::Load, 0x1000, 0);
    auto r = h.access(CpuAccessKind::Load, 0x1000, 1000 * tickNs);
    EXPECT_EQ(r.source, ServicedBy::L1);
    EXPECT_EQ(r.completion, 1000 * tickNs + 1 * tickNs);
}

TEST_F(HierarchyTest, L2CatchesL1Evictions)
{
    CacheHierarchy h(params(true), dram.get());

    // Touch far more lines than L1D holds but fewer than L2 holds.
    const unsigned lines = 2048;  // 128 KiB footprint
    Tick now = 0;
    for (unsigned i = 0; i < lines; ++i)
        now = h.access(CpuAccessKind::Load, i * 64, now).completion;

    // Second sweep: everything must come from L2 (or better).
    unsigned mem_hits = 0;
    for (unsigned i = 0; i < lines; ++i) {
        auto r = h.access(CpuAccessKind::Load, i * 64, now);
        now = r.completion;
        if (r.source == ServicedBy::Memory)
            ++mem_hits;
    }
    EXPECT_EQ(mem_hits, 0u);
}

TEST_F(HierarchyTest, WithoutL2SecondSweepThrashes)
{
    CacheHierarchy h(params(false), dram.get());
    const unsigned lines = 2048;
    Tick now = 0;
    for (unsigned i = 0; i < lines; ++i)
        now = h.access(CpuAccessKind::Load, i * 64, now).completion;

    unsigned mem_hits = 0;
    for (unsigned i = 0; i < lines; ++i) {
        auto r = h.access(CpuAccessKind::Load, i * 64, now);
        now = r.completion;
        if (r.source == ServicedBy::Memory)
            ++mem_hits;
    }
    EXPECT_EQ(mem_hits, lines);
}

TEST_F(HierarchyTest, IFetchAndDataUseSeparateL1s)
{
    CacheHierarchy h(params(false), dram.get());
    h.access(CpuAccessKind::IFetch, 0x4000, 0);
    // A data load of the same address still misses (separate arrays).
    auto r = h.access(CpuAccessKind::Load, 0x4000, 1000 * tickNs);
    EXPECT_EQ(r.source, ServicedBy::Memory);
}

TEST_F(HierarchyTest, StoresMakeLinesDirtyAndWriteBack)
{
    CacheHierarchy h(params(false), dram.get());
    // Store then evict by filling the set; memory must see a write.
    h.access(CpuAccessKind::Store, 0x0, 0);

    // L1D is 32 KiB, 4-way, 64 B lines -> 128 sets; line stride to
    // stay in set 0 is 128 * 64 bytes.
    const Addr stride = 128 * 64;
    Tick now = tickUs;
    for (unsigned i = 1; i <= 4; ++i)
        now = h.access(CpuAccessKind::Load, i * stride, now).completion;

    EXPECT_NE(dram->statGroup().name(), "");  // group exists
    // The dirty line write reached DRAM.
    const auto *writes = dynamic_cast<const stats::Scalar *>(
        dram->statGroup().find("writes"));
    ASSERT_NE(writes, nullptr);
    EXPECT_GE(writes->value(), 1.0);
}

TEST_F(HierarchyTest, MissRatesTrackAccesses)
{
    stats::StatGroup root("root");
    CacheHierarchy h(params(false), dram.get(), &root);
    h.access(CpuAccessKind::Load, 0x0, 0);
    h.access(CpuAccessKind::Load, 0x0, tickUs);
    for (const char *name : {"caches.l1dHits", "caches.l1dMisses"}) {
        const auto *stat =
            dynamic_cast<const stats::Scalar *>(root.find(name));
        ASSERT_NE(stat, nullptr) << name;
        EXPECT_EQ(stat->value(), 1.0) << name;
    }
    EXPECT_EQ(h.memoryAccesses(), 1u);
}

TEST_F(HierarchyTest, FlushAllForcesRemiss)
{
    CacheHierarchy h(params(true), dram.get());
    h.access(CpuAccessKind::Load, 0x0, 0);
    h.flushAll();
    auto r = h.access(CpuAccessKind::Load, 0x0, tickMs);
    EXPECT_EQ(r.source, ServicedBy::Memory);
}

TEST(HierarchyLatency, L2AddsLatencyWhenMemoryIsFast)
{
    // The paper's observation (Sec. 6.2): at 10 ns DRAM the L2 only
    // adds lookup latency for misses that would have been cheap.
    DramParams fast = stackedDramParams();
    fast.arrayLatency = 10 * tickNs;
    DramModel dram_no_l2(fast);
    DramModel dram_l2(fast);

    HierarchyParams no_l2;
    no_l2.hasL2 = false;
    HierarchyParams with_l2;
    with_l2.hasL2 = true;

    CacheHierarchy h_no(no_l2, &dram_no_l2);
    CacheHierarchy h_l2(with_l2, &dram_l2);

    // Cold miss cost comparison for a single line.
    auto r_no = h_no.access(CpuAccessKind::Load, 0x100, 0);
    auto r_l2 = h_l2.access(CpuAccessKind::Load, 0x100, 0);
    EXPECT_GT(r_l2.completion, r_no.completion);
}

} // anonymous namespace
