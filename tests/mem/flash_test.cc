/**
 * @file
 * Unit and property tests for the flash device, FTL and controller.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/flash.hh"
#include "sim/contract.hh"
#include "sim/random.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

/** The value of statistic @p name in @p flash's group. */
double
stat(const FlashController &flash, const char *name)
{
    const auto *scalar = dynamic_cast<const stats::Scalar *>(
        flash.statGroup().find(name));
    EXPECT_NE(scalar, nullptr) << name;
    return scalar ? scalar->value() : -1.0;
}

/** Small FTL for fast property testing: 64 blocks x 16 pages. */
mercury::mem::Ftl
smallFtl()
{
    return Ftl(64 * 16, 16, 0.15, 3, 8);
}

TEST(Ftl, LogicalSpaceIsSmallerThanPhysical)
{
    Ftl ftl = smallFtl();
    EXPECT_LT(ftl.logicalPages(), ftl.physicalPages());
    EXPECT_GT(ftl.logicalPages(), 0u);
}

TEST(Ftl, PagesStartUnmapped)
{
    Ftl ftl = smallFtl();
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        EXPECT_FALSE(ftl.isMapped(lpn));
}

TEST(Ftl, WriteMapsAndTranslates)
{
    Ftl ftl = smallFtl();
    auto outcome = ftl.write(5);
    EXPECT_TRUE(ftl.isMapped(5));
    EXPECT_LT(outcome.physicalPage, ftl.physicalPages());
    EXPECT_EQ(outcome.movedPages, 0u);
    EXPECT_TRUE(ftl.checkConsistency());
}

TEST(Ftl, OverwriteRelocatesToNewPhysicalPage)
{
    Ftl ftl = smallFtl();
    auto first = ftl.write(7);
    auto second = ftl.write(7);
    EXPECT_NE(first.physicalPage, second.physicalPage);
    EXPECT_TRUE(ftl.checkConsistency());
}

TEST(Ftl, SequentialWritesUseDistinctPhysicalPages)
{
    Ftl ftl = smallFtl();
    std::set<std::uint64_t> ppns;
    for (std::uint64_t lpn = 0; lpn < 32; ++lpn)
        ppns.insert(ftl.write(lpn).physicalPage);
    EXPECT_EQ(ppns.size(), 32u);
}

TEST(Ftl, FillingLogicalSpaceKeepsConsistency)
{
    Ftl ftl = smallFtl();
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        ftl.write(lpn);
    EXPECT_TRUE(ftl.checkConsistency());
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        EXPECT_TRUE(ftl.isMapped(lpn));
}

TEST(Ftl, SteadyStateOverwritesTriggerGc)
{
    Ftl ftl = smallFtl();
    // Fill once, then overwrite randomly for several device-fills.
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        ftl.write(lpn);

    Rng rng(1234);
    const std::uint64_t rewrites = ftl.logicalPages() * 6;
    for (std::uint64_t i = 0; i < rewrites; ++i)
        ftl.write(rng.nextInt(ftl.logicalPages()));

    EXPECT_GT(ftl.totalErases(), 0u);
    EXPECT_GT(ftl.totalMoves(), 0u);
    EXPECT_TRUE(ftl.checkConsistency());
    // All data still addressable.
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        EXPECT_TRUE(ftl.isMapped(lpn));
}

TEST(Ftl, WriteAmplificationAboveOneUnderRandomOverwrite)
{
    Ftl ftl = smallFtl();
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        ftl.write(lpn);
    Rng rng(99);
    for (std::uint64_t i = 0; i < ftl.logicalPages() * 8; ++i)
        ftl.write(rng.nextInt(ftl.logicalPages()));

    EXPECT_GT(ftl.writeAmplification(), 1.0);
    EXPECT_LT(ftl.writeAmplification(), 10.0)
        << "WA should stay bounded with 15% overprovision";
}

TEST(Ftl, SequentialOverwriteHasLowWriteAmplification)
{
    Ftl ftl = smallFtl();
    for (int pass = 0; pass < 8; ++pass) {
        for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
            ftl.write(lpn);
    }
    // Sequential overwrite invalidates whole blocks: GC moves little.
    EXPECT_LT(ftl.writeAmplification(), 1.2);
}

TEST(Ftl, WearLevelingBoundsEraseSpread)
{
    Ftl ftl(64 * 16, 16, 0.15, 3, 8);
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        ftl.write(lpn);

    // Hammer a tiny hot set; without wear leveling the spread would
    // grow without bound while cold blocks never cycle.
    Rng rng(7);
    for (int i = 0; i < 60000; ++i)
        ftl.write(rng.nextInt(8));

    // Without wear leveling this workload concentrates essentially
    // every erase (~4000) on the overprovision blocks, so the spread
    // approaches the total erase count. Static wear leveling must keep
    // it orders of magnitude lower.
    EXPECT_GT(ftl.totalErases(), 1000u);
    EXPECT_LE(ftl.eraseSpread(), 128u)
        << "erase spread must stay bounded under a hot-spot workload";
    EXPECT_LT(static_cast<double>(ftl.eraseSpread()),
              0.05 * static_cast<double>(ftl.totalErases()));
    EXPECT_TRUE(ftl.checkConsistency());
}

class FtlPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FtlPropertyTest, RandomWorkloadPreservesMappingInvariant)
{
    Ftl ftl = smallFtl();
    Rng rng(GetParam());

    // Random writes and overwrites; the map must stay consistent,
    // every written lpn mapped and every other lpn unmapped.
    std::vector<bool> live(ftl.logicalPages(), false);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t lpn = rng.nextInt(ftl.logicalPages());
        ftl.write(lpn);
        live[lpn] = true;
    }

    ASSERT_TRUE(ftl.checkConsistency());
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn)
        EXPECT_EQ(ftl.isMapped(lpn), live[lpn]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(Ftl, RejectsBlocksTooLargeForTheValidCount)
{
    // validCount_ and pickGcVictim's minimum are 16-bit; 65536 pages
    // per block would wrap them and GC would never pick a victim.
    contract::ScopedContractThrow guard;
    EXPECT_THROW(Ftl(65536ull * 8, 65536, 0.15, 3, 8),
                 contract::ContractViolation);
    EXPECT_NO_THROW(Ftl(65535ull * 8, 65535, 0.15, 3, 8));
}

// --- Demand-allocated mapping tables ---------------------------------

/** One channel of the default (19.8 GB, 16-channel) Iridium flash. */
Ftl
iridiumChannelFtl()
{
    const FlashParams p;
    return Ftl(p.capacity / p.numChannels / p.pageBytes, p.pagesPerBlock,
               p.overprovision, p.gcLowWaterBlocks,
               p.wearLevelThreshold);
}

TEST(FtlTables, FreshFullSizeChannelHoldsNoTableChunks)
{
    const Ftl ftl = iridiumChannelFtl();
    const std::size_t flat_bytes =
        (ftl.logicalPages() + ftl.physicalPages()) * sizeof(std::int64_t);
    EXPECT_GT(flat_bytes, 4u * miB);
    // Only the chunk index is resident: far below one chunk.
    EXPECT_LT(ftl.tableBytes(), Ftl::tableChunkBytes);
}

TEST(FtlTables, ReadsAndAuditsAllocateNothing)
{
    Ftl ftl = iridiumChannelFtl();
    for (std::uint64_t lpn = 0; lpn < 64; ++lpn)
        ftl.write(lpn * 1000);
    const std::size_t written = ftl.tableBytes();

    std::uint64_t mapped = 0;
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn) {
        if (ftl.isMapped(lpn))
            ++mapped;
    }
    EXPECT_TRUE(ftl.checkConsistency());
    EXPECT_EQ(mapped, 64u);
    EXPECT_EQ(ftl.tableBytes(), written);
}

TEST(FtlTables, WritesAllocateOnlyTheChunksTheyTouch)
{
    Ftl ftl = iridiumChannelFtl();
    const std::size_t fresh = ftl.tableBytes();
    constexpr std::uint64_t chunk_pages = 1ull << Ftl::tableChunkShift;

    // 100 pages inside one map chunk; fresh blocks hand out physical
    // pages in order, so their reverse entries share one chunk too.
    // No page is written twice and nothing is collected, so each
    // page stays where its write put it.
    std::set<std::uint64_t> reverse_chunks;
    for (std::uint64_t lpn = 0; lpn < 100; ++lpn)
        reverse_chunks.insert(ftl.write(lpn).physicalPage / chunk_pages);
    EXPECT_LE(ftl.tableBytes() - fresh, 2 * Ftl::tableChunkBytes);

    // Ten pages one chunk apart touch ten more map chunks at most.
    std::set<std::uint64_t> map_chunks;
    for (std::uint64_t i = 1; i <= 10; ++i) {
        const auto outcome = ftl.write(i * chunk_pages + 7);
        ASSERT_EQ(outcome.movedPages, 0u);
        reverse_chunks.insert(outcome.physicalPage / chunk_pages);
    }
    for (std::uint64_t lpn = 0; lpn < ftl.logicalPages(); ++lpn) {
        if (ftl.isMapped(lpn))
            map_chunks.insert(lpn / chunk_pages);
    }
    EXPECT_EQ(map_chunks.size(), 11u);
    EXPECT_LE(ftl.tableBytes() - fresh,
              (map_chunks.size() + reverse_chunks.size()) *
                  Ftl::tableChunkBytes);
    EXPECT_TRUE(ftl.checkConsistency());
}

TEST(FtlTables, CopiedFtlTranslatesLikeTheOriginal)
{
    Ftl original = smallFtl();
    Rng rng(34);
    for (int i = 0; i < 5000; ++i)
        original.write(rng.nextInt(original.logicalPages()));

    Ftl copy = original;
    Ftl twin = original;
    ASSERT_TRUE(copy.checkConsistency());
    EXPECT_EQ(copy.tableBytes(), original.tableBytes());
    for (std::uint64_t lpn = 0; lpn < original.logicalPages(); ++lpn)
        ASSERT_EQ(copy.isMapped(lpn), original.isMapped(lpn));

    // The copy owns its tables: rewriting it leaves the original be,
    // so the original and a second copy still place every later
    // write alike, collections included.
    for (int i = 0; i < 2000; ++i)
        copy.write(rng.nextInt(copy.logicalPages()));
    ASSERT_TRUE(copy.checkConsistency());
    ASSERT_TRUE(original.checkConsistency());
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t lpn = rng.nextInt(original.logicalPages());
        const auto want = original.write(lpn);
        const auto got = twin.write(lpn);
        ASSERT_EQ(got.physicalPage, want.physicalPage) << "write " << i;
        ASSERT_EQ(got.movedPages, want.movedPages) << "write " << i;
    }
    EXPECT_TRUE(original.checkConsistency());
}

FlashParams
smallFlash()
{
    FlashParams p;
    p.numChannels = 4;
    p.capacity = 64ull * miB;
    p.pageBytes = 4096;
    p.pagesPerBlock = 64;
    return p;
}

TEST(FlashController, CapacityReflectsOverprovision)
{
    FlashController flash(smallFlash());
    EXPECT_LT(flash.capacityBytes(), 64ull * miB);
    EXPECT_GT(flash.capacityBytes(), 48ull * miB);
}

TEST(FlashController, ColdReadOfErasedAreaIsCheap)
{
    FlashController flash(smallFlash());
    // Never-written page: no array sense needed.
    const Tick done = flash.access(AccessType::Read, 0, 64, 0);
    EXPECT_LT(done, tickUs);
}

TEST(FlashController, ReadOfWrittenPagePaysSenseLatency)
{
    FlashParams p = smallFlash();
    FlashController flash(p);

    // Write a line, drain, then force the register off the page by
    // touching a different page on the same channel.
    flash.access(AccessType::Write, 0, 64, 0);
    Tick now = flash.drainWrites(tickMs);
    now = flash.access(AccessType::Read, 2 * p.pageBytes, 64, now);

    const Tick start = now;
    const Tick done = flash.access(AccessType::Read, 0, 64, now);
    EXPECT_GE(done - start, p.readLatency);
}

TEST(FlashController, RegisterHitsAreTransferOnly)
{
    FlashParams p = smallFlash();
    FlashController flash(p);
    flash.access(AccessType::Write, 0, 64, 0);
    Tick now = flash.drainWrites(tickMs);

    now = flash.access(AccessType::Read, 0, 64, now);
    const Tick start = now;
    // Another line in the same page: register hit.
    const Tick done = flash.access(AccessType::Read, 128, 64, now);
    EXPECT_LT(done - start, tickUs);
}

TEST(FlashController, WritesCoalesceWithinAPage)
{
    FlashParams p = smallFlash();
    FlashController flash(p);

    // 64 line writes filling one page: one program on drain.
    Tick now = 0;
    for (unsigned i = 0; i < p.pageBytes / 64; ++i)
        now = flash.access(AccessType::Write, i * 64, 64, now);
    EXPECT_LT(now, p.programLatency)
        << "writes within one page must coalesce in the register";

    flash.drainWrites(now);
    const auto *programs = dynamic_cast<const stats::Scalar *>(
        flash.statGroup().find("pagePrograms"));
    ASSERT_NE(programs, nullptr);
    EXPECT_DOUBLE_EQ(programs->value(), 1.0);
}

TEST(FlashController, ScatteredWritesPayProgramWhenBufferIsFull)
{
    FlashParams p = smallFlash();
    p.writeBufferPages = 1;
    FlashController flash(p);

    // With a single write-buffer slot, dirtying a second page must
    // program the first out.
    Tick now = flash.access(AccessType::Write, 0, 64, 0);
    const Tick before = now;
    now = flash.access(AccessType::Write, 4 * p.pageBytes, 64, now);
    EXPECT_GE(now - before, p.programLatency);
}

TEST(FlashController, WriteBufferCoalescesScatteredPages)
{
    FlashParams p = smallFlash();
    p.writeBufferPages = 16;
    FlashController flash(p);

    // Up to 16 distinct dirty pages gather without any program.
    Tick now = 0;
    for (unsigned i = 0; i < 16; ++i) {
        now = flash.access(AccessType::Write,
                           i * 4 * p.pageBytes, 64, now);
    }
    EXPECT_LT(now, p.programLatency);

    // The 17th distinct page evicts the LRU slot.
    const Tick before = now;
    now = flash.access(AccessType::Write, 70 * p.pageBytes, 64, now);
    EXPECT_GE(now - before, p.programLatency);
}

TEST(FlashController, ReadsHitTheWriteBuffer)
{
    FlashParams p = smallFlash();
    FlashController flash(p);
    Tick now = flash.access(AccessType::Write, 0, 64, 0);
    // Reading a line of a buffered dirty page needs no sense.
    const Tick before = now;
    now = flash.access(AccessType::Read, 128, 64, now);
    EXPECT_LT(now - before, tickUs);
}

TEST(FlashController, ChannelsOperateIndependently)
{
    FlashParams p = smallFlash();
    FlashController flash(p);
    const std::uint64_t channel_bytes =
        flash.capacityBytes() / p.numChannels;

    flash.access(AccessType::Write, 0, 64, 0);
    // Concurrent write on another channel is not delayed.
    const Tick done =
        flash.access(AccessType::Write, channel_bytes, 64, 0);
    EXPECT_LT(done, tickUs);
}

TEST(FlashController, DrainWritesLeavesNoDirtyState)
{
    FlashController flash(smallFlash());
    flash.access(AccessType::Write, 0, 64, 0);
    flash.access(AccessType::Write, 123456, 64, 0);
    const Tick t = flash.drainWrites(tickMs);
    EXPECT_GT(t, tickMs);
    // Draining again is a no-op.
    EXPECT_EQ(flash.drainWrites(t), t);
}

TEST(FlashController, SustainedOverwriteDrivesGc)
{
    FlashParams p = smallFlash();
    FlashController flash(p);
    Rng rng(5);

    Tick now = 0;
    const std::uint64_t pages =
        flash.capacityBytes() / p.pageBytes;
    for (std::uint64_t i = 0; i < pages * 3; ++i) {
        const Addr addr = rng.nextInt(pages) * p.pageBytes;
        now = flash.access(AccessType::Write, addr, 64, now);
    }
    flash.drainWrites(now);

    EXPECT_GT(stat(flash, "erases"), 0.0);
    EXPECT_GE(flash.writeAmplification(), 1.0);
}

TEST(FlashController, IdleReadLatencyMatchesConfig)
{
    FlashParams p = smallFlash();
    p.readLatency = 20 * tickUs;
    FlashController flash(p);
    // Program a page, then read it back from an idle channel: the
    // read senses the array.
    const Tick idle =
        flash.drainWrites(flash.access(AccessType::Write, 0, 64, 0));
    const Tick at = idle + tickUs;
    const Tick done = flash.access(AccessType::Read, 0, 64, at);
    EXPECT_GE(done - at, 20 * tickUs);
    EXPECT_LT(done - at, 21 * tickUs);
}

TEST(FlashController, RejectsOversizedAccess)
{
    contract::ScopedContractThrow guard;
    FlashController flash(smallFlash());
    EXPECT_THROW(flash.access(AccessType::Read, 0, 8192, 0),
                 contract::ContractViolation);
}

// --- Fault injection ------------------------------------------------

TEST(FtlFaults, AttachedInjectorWithZeroProbsChangesNothing)
{
    Ftl clean = smallFtl();
    Ftl armed = smallFtl();
    fault::FaultInjector injector(4);
    armed.setFaultInjection(&injector, 0.0, 0.0, "ftl");

    Rng rng(21);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t lpn = rng.nextInt(clean.logicalPages());
        const auto want = clean.write(lpn);
        const auto got = armed.write(lpn);
        ASSERT_EQ(got.physicalPage, want.physicalPage) << "write " << i;
        ASSERT_EQ(got.movedPages, want.movedPages) << "write " << i;
    }
    EXPECT_EQ(clean.totalErases(), armed.totalErases());
    EXPECT_EQ(clean.flashWrites(), armed.flashWrites());
    EXPECT_EQ(armed.retiredBlocks(), 0u);
    EXPECT_EQ(injector.faultCount(), 0u);
}

TEST(FtlFaults, EraseFailuresGrowBadBlocksConsistently)
{
    Ftl ftl = smallFtl();
    fault::FaultInjector injector(5);
    ftl.setFaultInjection(&injector, 0.0, 0.2, "ftl");

    Rng rng(22);
    for (int i = 0; i < 30000; ++i)
        ftl.write(rng.nextInt(ftl.logicalPages()), i * tickUs);

    EXPECT_GT(ftl.retiredBlocks(), 0u);
    EXPECT_GT(ftl.capacityLossFraction(), 0.0);
    // Every mapped logical page still maps to a live physical page
    // that maps back to it, despite the shrinkage.
    EXPECT_TRUE(ftl.checkConsistency());
    // Each retirement is on the recorded timeline.
    std::uint64_t bad_blocks = 0;
    for (const auto &record : injector.timeline()) {
        if (record.kind == fault::FaultKind::FlashBadBlock)
            ++bad_blocks;
    }
    EXPECT_EQ(bad_blocks, ftl.retiredBlocks());
}

TEST(FtlFaults, RetirementStopsAtTheHeadroomGuard)
{
    // Certain erase failure: blocks retire until the guard refuses
    // to dip below the GC headroom; the device limps on instead of
    // death-spiralling.
    Ftl ftl = smallFtl();
    fault::FaultInjector injector(6);
    ftl.setFaultInjection(&injector, 0.0, 1.0, "ftl");

    Rng rng(23);
    for (int i = 0; i < 60000; ++i)
        ftl.write(rng.nextInt(ftl.logicalPages()), i * tickUs);

    EXPECT_EQ(ftl.spareBlocksRemaining(), 0u);
    EXPECT_GT(ftl.freeBlocks(), 0u);
    EXPECT_TRUE(ftl.checkConsistency());
    // Still writable at full logical capacity.
    const auto outcome = ftl.write(0);
    EXPECT_LT(outcome.physicalPage, ftl.physicalPages());
}

TEST(FtlFaults, ProgramFailuresBurnPagesAndRetireBlocks)
{
    Ftl ftl = smallFtl();
    fault::FaultInjector injector(7);
    ftl.setFaultInjection(&injector, 0.05, 0.0, "ftl");

    Rng rng(24);
    for (int i = 0; i < 30000; ++i)
        ftl.write(rng.nextInt(ftl.logicalPages()), i * tickUs);

    EXPECT_GT(ftl.programFailures(), 0u);
    // Blocks marked by failed programs are retired at erase time.
    EXPECT_GT(ftl.retiredBlocks(), 0u);
    EXPECT_TRUE(ftl.checkConsistency());
}

TEST(FtlFaults, SameSeedSameWearOutHistory)
{
    Ftl a = smallFtl(), b = smallFtl();
    fault::FaultInjector ia(8), ib(8);
    a.setFaultInjection(&ia, 0.02, 0.1, "ftl");
    b.setFaultInjection(&ib, 0.02, 0.1, "ftl");

    Rng ra(25), rb(25);
    for (int i = 0; i < 20000; ++i) {
        a.write(ra.nextInt(a.logicalPages()), i * tickUs);
        b.write(rb.nextInt(b.logicalPages()), i * tickUs);
    }
    EXPECT_EQ(a.retiredBlocks(), b.retiredBlocks());
    EXPECT_EQ(a.programFailures(), b.programFailures());
    EXPECT_EQ(a.totalErases(), b.totalErases());
    EXPECT_EQ(ia.timelineDigest(), ib.timelineDigest());
}

TEST(FlashControllerFaults, RetirementSurfacesInAggregateStats)
{
    FlashParams p = smallFlash();
    p.numChannels = 1;
    p.capacity = 8 * miB;
    p.pagesPerBlock = 16;
    p.writeBufferPages = 2;
    p.programFailProbability = 0.3;
    FlashController flash(p);
    fault::FaultInjector injector(9);
    flash.setFaultInjector(&injector);

    Rng rng(26);
    Tick now = 0;
    const std::uint64_t span = flash.capacityBytes() / 2;
    for (int i = 0; i < 40000; ++i) {
        const Addr addr = (rng.nextInt(span / 4096)) * 4096;
        now = flash.access(AccessType::Write, addr, 64, now);
    }
    flash.drainWrites(now);

    EXPECT_GT(stat(flash, "badBlocks"), 0.0);
    EXPECT_GT(injector.faultCount(), 0u);
}

} // anonymous namespace
