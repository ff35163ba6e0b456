/**
 * @file
 * Unit tests for the slab allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "kvstore/block_pool.hh"
#include "kvstore/slab.hh"

namespace
{

using namespace mercury;
using namespace mercury::kvstore;

SlabParams
smallParams()
{
    SlabParams p;
    p.memLimit = 4 * miB;
    p.pageSize = 1 * miB;
    p.minChunk = 96;
    p.growthFactor = 1.25;
    return p;
}

TEST(SlabAllocator, ClassesGrowGeometrically)
{
    SlabAllocator slabs(smallParams());
    ASSERT_GT(slabs.numClasses(), 10u);
    for (unsigned cls = 1; cls < slabs.numClasses(); ++cls)
        EXPECT_GT(slabs.chunkSize(cls), slabs.chunkSize(cls - 1));
    EXPECT_EQ(slabs.chunkSize(slabs.numClasses() - 1), 1 * miB);
}

TEST(SlabAllocator, ChunkSizesAreAligned)
{
    SlabAllocator slabs(smallParams());
    for (unsigned cls = 0; cls + 1 < slabs.numClasses(); ++cls)
        EXPECT_EQ(slabs.chunkSize(cls) % 8, 0u);
}

TEST(SlabAllocator, ClassForPicksSmallestFit)
{
    SlabAllocator slabs(smallParams());
    const int cls = slabs.classFor(100);
    ASSERT_GE(cls, 0);
    EXPECT_GE(slabs.chunkSize(static_cast<unsigned>(cls)), 100u);
    if (cls > 0) {
        EXPECT_LT(slabs.chunkSize(static_cast<unsigned>(cls) - 1),
                  100u);
    }
}

TEST(SlabAllocator, ClassForTinyObjectUsesFirstClass)
{
    SlabAllocator slabs(smallParams());
    EXPECT_EQ(slabs.classFor(1), 0);
    EXPECT_EQ(slabs.classFor(96), 0);
}

TEST(SlabAllocator, OversizeObjectRejected)
{
    SlabAllocator slabs(smallParams());
    EXPECT_EQ(slabs.classFor(2 * miB), -1);
    EXPECT_EQ(slabs.classFor(1 * miB),
              static_cast<int>(slabs.numClasses() - 1));
}

TEST(SlabAllocator, AllocateHandsOutDistinctChunks)
{
    SlabAllocator slabs(smallParams());
    const int cls = slabs.classFor(128);
    std::set<void *> seen;
    for (int i = 0; i < 1000; ++i) {
        void *chunk = slabs.allocate(static_cast<unsigned>(cls));
        ASSERT_NE(chunk, nullptr);
        EXPECT_TRUE(seen.insert(chunk).second);
    }
}

TEST(SlabAllocator, FreeMakesChunksReusable)
{
    SlabAllocator slabs(smallParams());
    const auto cls = static_cast<unsigned>(slabs.classFor(128));
    void *a = slabs.allocate(cls);
    slabs.free(cls, a);
    void *b = slabs.allocate(cls);
    EXPECT_EQ(a, b);
}

TEST(SlabAllocator, UsedBytesTracksChunkLifecycle)
{
    SlabAllocator slabs(smallParams());
    const auto cls = static_cast<unsigned>(slabs.classFor(128));
    EXPECT_EQ(slabs.usedBytes(), 0u);
    void *a = slabs.allocate(cls);
    EXPECT_EQ(slabs.usedBytes(), slabs.chunkSize(cls));
    slabs.free(cls, a);
    EXPECT_EQ(slabs.usedBytes(), 0u);
}

TEST(SlabAllocator, MemoryLimitStopsGrowth)
{
    SlabParams p = smallParams();
    p.memLimit = 2 * miB;
    SlabAllocator slabs(p);
    // Largest class: one chunk per page; only two pages fit.
    const unsigned cls = slabs.numClasses() - 1;
    EXPECT_NE(slabs.allocate(cls), nullptr);
    EXPECT_NE(slabs.allocate(cls), nullptr);
    EXPECT_EQ(slabs.allocate(cls), nullptr);
    EXPECT_EQ(slabs.allocatedBytes(), 2 * miB);
}

TEST(SlabAllocator, PagesAreNeverReassignedBetweenClasses)
{
    // Memcached calcification: once the budget is consumed by one
    // class, another class cannot allocate.
    SlabParams p = smallParams();
    p.memLimit = 2 * miB;
    SlabAllocator slabs(p);

    const auto small_cls = static_cast<unsigned>(slabs.classFor(128));
    std::vector<void *> chunks;
    while (void *chunk = slabs.allocate(small_cls))
        chunks.push_back(chunk);
    EXPECT_FALSE(slabs.canGrow());

    // Free everything; the pages stay with the small class.
    for (void *chunk : chunks)
        slabs.free(small_cls, chunk);
    const auto big_cls = static_cast<unsigned>(slabs.classFor(64 * kiB));
    EXPECT_EQ(slabs.allocate(big_cls), nullptr);
    EXPECT_NE(slabs.allocate(small_cls), nullptr);
}

TEST(SlabAllocator, PageIndexOfLocatesChunks)
{
    SlabAllocator slabs(smallParams());
    const auto cls = static_cast<unsigned>(slabs.classFor(4096));
    void *a = slabs.allocate(cls);
    void *b = slabs.allocate(cls);
    EXPECT_GE(slabs.pageIndexOf(a), 0);
    EXPECT_EQ(slabs.pageIndexOf(a), slabs.pageIndexOf(b));

    int dummy;
    EXPECT_EQ(slabs.pageIndexOf(&dummy), -1);
}

TEST(SlabAllocator, PageOffsetWithinPageSize)
{
    SlabAllocator slabs(smallParams());
    const auto cls = static_cast<unsigned>(slabs.classFor(4096));
    for (int i = 0; i < 100; ++i) {
        void *chunk = slabs.allocate(cls);
        EXPECT_LT(slabs.pageOffsetOf(chunk), 1 * miB);
    }
}

TEST(SlabAllocator, UsedChunksPerClass)
{
    SlabAllocator slabs(smallParams());
    const auto cls = static_cast<unsigned>(slabs.classFor(300));
    EXPECT_EQ(slabs.usedChunks(cls), 0u);
    void *a = slabs.allocate(cls);
    slabs.allocate(cls);
    EXPECT_EQ(slabs.usedChunks(cls), 2u);
    slabs.free(cls, a);
    EXPECT_EQ(slabs.usedChunks(cls), 1u);
}

TEST(SlabAllocator, ChunksGoHighestFirstThenFreedOnesFirst)
{
    // The order simulated item addresses follow: a page's chunks go
    // from its last down, and a freed chunk goes again before any
    // chunk not yet handed out.
    SlabAllocator slabs(smallParams());
    const auto cls = static_cast<unsigned>(slabs.classFor(128));
    const std::uint64_t size = slabs.chunkSize(cls);
    const std::uint64_t last = (1 * miB / size - 1) * size;
    void *a = slabs.allocate(cls);
    void *b = slabs.allocate(cls);
    EXPECT_EQ(slabs.pageOffsetOf(a), last);
    EXPECT_EQ(slabs.pageOffsetOf(b), last - size);
    slabs.free(cls, a);
    EXPECT_TRUE(slabs.checkConsistency());
    EXPECT_EQ(slabs.allocate(cls), a);
    EXPECT_EQ(slabs.pageOffsetOf(slabs.allocate(cls)), last - 2 * size);
    EXPECT_EQ(slabs.usedChunks(cls), 3u);
    EXPECT_TRUE(slabs.checkConsistency());
}

TEST(SlabAllocator, FullPageGrowsAnotherFromItsLastChunk)
{
    SlabAllocator slabs(smallParams());
    const auto cls = static_cast<unsigned>(slabs.classFor(128));
    const std::uint64_t size = slabs.chunkSize(cls);
    const std::uint64_t per_page = 1 * miB / size;
    for (std::uint64_t i = 0; i < per_page; ++i)
        ASSERT_NE(slabs.allocate(cls), nullptr);
    EXPECT_EQ(slabs.allocatedBytes(), 1 * miB);
    void *next = slabs.allocate(cls);
    EXPECT_EQ(slabs.allocatedBytes(), 2 * miB);
    EXPECT_EQ(slabs.pageIndexOf(next), 1);
    EXPECT_EQ(slabs.pageOffsetOf(next), (per_page - 1) * size);
    EXPECT_TRUE(slabs.checkConsistency());
}

// The pool is shared by the whole process, so each test uses a block
// size no store asks for.

TEST(BlockPool, ReusesAHandedBackBlockOfTheSameSize)
{
    const std::size_t bytes = 384 * kiB + 64;
    void *block = takeBlock(bytes);
    returnBlock(block, bytes);
    void *other = takeBlock(bytes + 64);
    EXPECT_NE(other, block);
    EXPECT_EQ(takeBlock(bytes), block);
    returnBlock(block, bytes);
    returnBlock(other, bytes + 64);
}

TEST(BlockPool, HandsOutTheHighestIdleAddressFirst)
{
    const std::size_t bytes = 320 * kiB + 64;
    void *a = takeBlock(bytes);
    void *b = takeBlock(bytes);
    returnBlock(a, bytes);
    returnBlock(b, bytes);
    void *first = takeBlock(bytes);
    void *second = takeBlock(bytes);
    EXPECT_EQ(first, std::max(a, b, std::less<>{}));
    EXPECT_EQ(second, std::min(a, b, std::less<>{}));
    returnBlock(first, bytes);
    returnBlock(second, bytes);
}

} // anonymous namespace
