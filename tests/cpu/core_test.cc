/**
 * @file
 * Unit tests for core timing models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_probe.hh"
#include "cpu/core.hh"
#include "mem/dram.hh"
#include "sim/contract.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace
{

using namespace mercury;
using namespace mercury::cpu;
using namespace mercury::mem;

/** Value of a counter under @p root. */
double
statValue(const stats::StatGroup &root, std::string_view path)
{
    const auto *scalar =
        dynamic_cast<const stats::Scalar *>(root.find(path));
    EXPECT_NE(scalar, nullptr) << path;
    return scalar ? scalar->value() : -1.0;
}

struct Rig
{
    explicit Rig(CoreParams core_params, bool with_l2 = false,
                 Tick dram_latency = 100 * tickNs,
                 bool dram_refresh = false)
    {
        DramParams dp = stackedDramParams();
        dp.arrayLatency = dram_latency;
        dp.modelRefresh = dram_refresh;
        dram = std::make_unique<DramModel>(dp, &stats);
        caches = std::make_unique<CacheHierarchy>(
            defaultHierarchy(core_params.type, with_l2), dram.get(),
            &stats);
        core = std::make_unique<CoreModel>(core_params, caches.get());
    }

    double
    stat(std::string_view path) const
    {
        return statValue(stats, path);
    }

    stats::StatGroup stats{"rig"};
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<CacheHierarchy> caches;
    std::unique_ptr<CoreModel> core;
};

TEST(CoreModel, PureComputeTimeMatchesIpcAndFrequency)
{
    Rig rig(cortexA7Params());
    OpTrace trace{Op::compute(1000)};
    auto r = rig.core->run(trace, 0);
    // A7: 1 IPC at 1 GHz -> 1000 ns.
    EXPECT_EQ(r.elapsed(), 1000 * tickNs);
    EXPECT_EQ(r.instructions, 1000u);
    EXPECT_EQ(r.stallTicks, 0u);
}

TEST(CoreModel, FasterClockShortensCompute)
{
    Rig rig(cortexA15Params(1.5));
    OpTrace trace{Op::compute(2300)};
    auto r = rig.core->run(trace, 0);
    // A15: 2.3 IPC at 1.5 GHz -> 1000 cycles -> 666.67 ns.
    EXPECT_NEAR(static_cast<double>(r.elapsed()),
                1000.0 / 1.5 * tickNs, 2.0 * tickNs);
}

TEST(CoreModel, InOrderStallsOnEveryMiss)
{
    Rig rig(cortexA7Params(), false, 100 * tickNs);
    OpTrace trace;
    TraceBuilder(trace).streamRead(0, 8 * 64);
    auto r = rig.core->run(trace, 0);
    // Eight cold misses at ~100 ns each, serialized.
    EXPECT_GE(r.elapsed(), 8 * 100 * tickNs);
    EXPECT_GT(r.stallTicks, r.computeTicks);
}

TEST(CoreModel, OutOfOrderOverlapsIndependentMisses)
{
    CoreParams a15 = cortexA15Params(1.0);
    Rig in_order(cortexA7Params(), false, 100 * tickNs);
    Rig ooo(a15, false, 100 * tickNs);

    OpTrace trace;
    // Strided independent loads across distinct DRAM banks.
    for (int i = 0; i < 16; ++i)
        trace.push_back(Op::load(static_cast<Addr>(i) * 32 * miB,
                                 Stream::Random));

    auto serial = in_order.core->run(trace, 0);
    auto overlapped = ooo.core->run(trace, 0);
    EXPECT_LT(overlapped.elapsed() * 2, serial.elapsed())
        << "OoO must overlap independent misses substantially";
}

TEST(CoreModel, DependentChainSerializesEvenOutOfOrder)
{
    Rig ooo(cortexA15Params(1.0), false, 100 * tickNs);

    OpTrace chain;
    for (int i = 0; i < 16; ++i)
        chain.push_back(Op::load(static_cast<Addr>(i) * 32 * miB,
                                 Stream::Dependent));

    auto r = ooo.core->run(chain, 0);
    EXPECT_GE(r.elapsed(), 16 * 100 * tickNs);
}

TEST(CoreModel, CacheHitsDoNotStall)
{
    Rig rig(cortexA7Params(), false, 100 * tickNs);
    OpTrace warm;
    TraceBuilder(warm).streamRead(0, 4 * 64);
    rig.core->run(warm, 0);

    OpTrace again;
    TraceBuilder(again).streamRead(0, 4 * 64);
    auto r = rig.core->run(again, tickMs);
    EXPECT_LT(r.elapsed(), 20 * tickNs);
}

TEST(CoreModel, CodePassDistributesInstructions)
{
    Rig rig(cortexA7Params(), false, 10 * tickNs);
    OpTrace trace;
    TraceBuilder(trace).codePass(0x100000, 64 * 64, 6400);
    auto r = rig.core->run(trace, 0);
    EXPECT_EQ(r.instructions, 6400u);
    EXPECT_EQ(r.memOps, 64u);
}

/**
 * Run @p whole and @p split on identical fresh rigs, twice each (cold
 * then warm, so both L1I misses and hits occur), and require the same
 * timing, L1I hit/miss counts and DRAM reads. DRAM refresh blackouts
 * make the timing depend on when each fetch starts, not only on the
 * totals.
 */
void
expectSameWalk(const CoreParams &core_params, const OpTrace &whole,
               const OpTrace &split)
{
    Rig a(core_params, false, 40 * tickNs, true);
    Rig b(core_params, false, 40 * tickNs, true);
    Tick start = 1000;
    for (int pass = 0; pass < 2; ++pass) {
        const RunResult ra = a.core->run(whole, start);
        const RunResult rb = b.core->run(split, start);
        EXPECT_EQ(ra.start, rb.start);
        EXPECT_EQ(ra.end, rb.end);
        EXPECT_EQ(ra.computeTicks, rb.computeTicks);
        EXPECT_EQ(ra.stallTicks, rb.stallTicks);
        EXPECT_EQ(ra.instructions, rb.instructions);
        EXPECT_EQ(ra.memOps, rb.memOps);
        start = ra.end + 1000;
    }
    EXPECT_EQ(a.stat("caches.l1iHits"), b.stat("caches.l1iHits"));
    EXPECT_EQ(a.stat("caches.l1iMisses"), b.stat("caches.l1iMisses"));
    EXPECT_EQ(a.stat("stackedDram.reads"), b.stat("stackedDram.reads"));
}

/** One N-line code pass walks exactly like N one-line passes that
 * carry the split instruction counts. */
void
expectCodePassMatchesLineByLine(std::uint64_t lines,
                                std::uint64_t instructions)
{
    const Addr base = 0x100000;
    OpTrace whole;
    TraceBuilder(whole).codePass(base, lines * 64, instructions);

    OpTrace split;
    TraceBuilder b(split);
    for (std::uint64_t i = 0; i < lines; ++i) {
        const bool extra = i < instructions % lines;
        b.codePass(base + i * 64, 64,
                   instructions / lines + (extra ? 1 : 0));
    }

    for (const CoreParams &core :
         {cortexA7Params(), cortexA15Params(1.5)}) {
        SCOPED_TRACE(core.name);
        expectSameWalk(core, whole, split);
    }
}

TEST(CoreModel, CodePassEqualsOneLinePassesWithSplitCounts)
{
    // Every line gets the same share.
    expectCodePassMatchesLineByLine(64, 6400);
    // instructions % lines != 0: the first 3 lines run one more.
    expectCodePassMatchesLineByLine(64, 6403);
    // instructions < lines: only the first 17 lines compute.
    expectCodePassMatchesLineByLine(50, 17);
    // A footprint larger than the 32 KiB L1I: warm passes miss too.
    expectCodePassMatchesLineByLine(1024, 70001);
}

TEST(CoreModel, ZeroLineCodePassIsAContractViolation)
{
    // TraceBuilder never emits one, but Op::codePass is public, and
    // the walk divides the instructions by the line count.
    contract::ScopedContractThrow guard;
    for (const CoreParams &core :
         {cortexA7Params(), cortexA15Params(1.5)}) {
        SCOPED_TRACE(core.name);
        Rig rig(core);
        EXPECT_THROW(rig.core->run({Op::codePass(0x100000, 0, 500, 64)}, 0),
                     contract::ContractViolation);
        EXPECT_THROW(rig.core->run({Op::codePass(0x100000, 8, 500, 0)}, 0),
                     contract::ContractViolation);
    }
}

TEST(CoreModel, ZeroByteCodePassIsPureCompute)
{
    OpTrace pass;
    TraceBuilder(pass).codePass(0x100000, 0, 500);
    expectSameWalk(cortexA7Params(), pass, OpTrace{Op::compute(500)});

    Rig rig(cortexA7Params());
    const RunResult r = rig.core->run(pass, 0);
    EXPECT_EQ(r.memOps, 0u);
    EXPECT_EQ(r.instructions, 500u);
    EXPECT_EQ(rig.stat("caches.l1iMisses"), 0.0);
}

/**
 * The in-order walk written out op by op, as the general memory-op
 * path of CoreModel::run does it with a window of one and nothing in
 * flight: each memory op issues at the cursor and blocks until it
 * completes, and only an L1 hit counts as compute.
 */
RunResult
referenceInOrderRun(const CoreParams &core, CacheHierarchy &caches,
                    const OpTrace &trace, Tick start)
{
    RunResult r;
    r.start = start;
    Tick cursor = start;
    auto compute = [&](std::uint64_t instructions) {
        const double cycles =
            static_cast<double>(instructions) / core.issueIpc;
        const auto t = static_cast<Tick>(
            cycles * static_cast<double>(tickNs) / core.freqGHz);
        cursor += t;
        r.computeTicks += t;
        r.instructions += instructions;
    };
    auto memory_op = [&](CpuAccessKind kind, Addr addr) {
        ++r.memOps;
        cursor += core.cyclePeriod();
        r.computeTicks += core.cyclePeriod();
        const AccessResult access = caches.access(kind, addr, cursor);
        if (access.source == ServicedBy::L1)
            r.computeTicks += access.completion - cursor;
        cursor = access.completion;
    };
    for (const Op &op : trace) {
        switch (op.kind) {
          case Op::Kind::Compute:
            compute(op.instructions);
            break;
          case Op::Kind::CodePass:
            for (std::uint64_t i = 0; i < op.lines; ++i) {
                memory_op(CpuAccessKind::IFetch,
                          op.addr + i * op.lineBytes);
                compute(op.instructions / op.lines +
                        (i < op.instructions % op.lines ? 1 : 0));
            }
            break;
          case Op::Kind::Load:
            memory_op(CpuAccessKind::Load, op.addr);
            break;
          case Op::Kind::Store:
            memory_op(CpuAccessKind::Store, op.addr);
            break;
        }
    }
    r.end = cursor;
    r.stallTicks = r.elapsed() - r.computeTicks;
    return r;
}

/**
 * A seeded trace that mixes code passes of every shape with compute
 * and with dependent, random and sequential loads and stores.
 */
OpTrace
mixedTrace(std::uint64_t seed)
{
    OpTrace trace;
    TraceBuilder b(trace);
    // instructions % lines != 0, then instructions < lines, then an
    // 800-line pass: at least three lines for each set of the 2-way,
    // 256-set L1I, so every set evicts within the pass.
    b.codePass(0x100000, 64 * 64, 6403)
        .codePass(0x180000, 50 * 64, 17)
        .codePass(0x1c0000, 800 * 64, 50001);
    Rng rng(seed);
    auto line_in = [&](std::uint64_t bytes) -> Addr {
        return rng.nextInt(bytes) & ~Addr(63);
    };
    for (int i = 0; i < 300; ++i) {
        switch (rng.nextInt(8)) {
          case 0:
          case 1: {
            // Code spread over 64 KiB, twice the L1I, so warm passes
            // miss as well as hit.
            const std::uint64_t lines = 1 + rng.nextInt(96);
            b.codePass(0x100000 + line_in(64 * kiB), lines * 64,
                       rng.nextInt(3 * lines));
            break;
          }
          case 2:
            b.compute(rng.nextInt(400));
            break;
          case 3:
            b.chaseLoad(line_in(64 * miB));
            break;
          case 4:
            trace.push_back(Op::load(line_in(64 * miB), Stream::Random));
            break;
          case 5:
            b.randomStore(line_in(64 * miB));
            break;
          case 6:
            b.streamRead(line_in(64 * miB), (1 + rng.nextInt(8)) * 64);
            break;
          default:
            b.streamWrite(line_in(64 * miB), (1 + rng.nextInt(8)) * 64);
            break;
        }
    }
    return trace;
}

/**
 * @p count A7 cores, each with its own hierarchy ("caches0", ...) in
 * front of one DRAM with refresh on, so that one core's fetches can
 * meet banks another core left busy into the future.
 */
struct SharedDramRig
{
    SharedDramRig(bool with_l2, unsigned count)
    {
        DramParams dp = stackedDramParams();
        dp.arrayLatency = 40 * tickNs;
        dp.modelRefresh = true;
        dram = std::make_unique<DramModel>(dp, &stats);
        for (unsigned i = 0; i < count; ++i) {
            HierarchyParams hp =
                defaultHierarchy(CoreType::CortexA7, with_l2);
            hp.name = detail::concat("caches", i);
            caches.push_back(std::make_unique<CacheHierarchy>(
                hp, dram.get(), &stats));
            cores.push_back(std::make_unique<CoreModel>(
                cortexA7Params(), caches.back().get()));
        }
    }

    double
    stat(std::string_view path) const
    {
        return statValue(stats, path);
    }

    stats::StatGroup stats{"rig"};
    std::unique_ptr<DramModel> dram;
    std::vector<std::unique_ptr<CacheHierarchy>> caches;
    std::vector<std::unique_ptr<CoreModel>> cores;
};

/**
 * Walk seeded mixed traces on @p count cores sharing one DRAM, the
 * cores taking turns from the same start tick, once through
 * CoreModel::run and once through the op-by-op reference on a twin
 * rig. Every run result, every hierarchy counter and the DRAM's
 * counters must agree.
 */
void
expectInOrderWalkMatchesReference(bool with_l2, std::uint64_t seed,
                                  unsigned count)
{
    const CoreParams a7 = cortexA7Params();
    SharedDramRig rig(with_l2, count);
    SharedDramRig twin(with_l2, count);
    std::vector<OpTrace> traces;
    for (unsigned c = 0; c < count; ++c)
        traces.push_back(mixedTrace(seed + 100 * c));

    // Cold, then warm twice: the L1s and the L2 miss and hit.
    Tick start = 1000;
    for (int pass = 0; pass < 3; ++pass) {
        Tick end = start;
        for (unsigned c = 0; c < count; ++c) {
            const RunResult got = rig.cores[c]->run(traces[c], start);
            const RunResult want = referenceInOrderRun(
                a7, *twin.caches[c], traces[c], start);
            EXPECT_EQ(got.start, want.start);
            EXPECT_EQ(got.end, want.end);
            EXPECT_EQ(got.instructions, want.instructions);
            EXPECT_EQ(got.memOps, want.memOps);
            EXPECT_EQ(got.computeTicks, want.computeTicks);
            EXPECT_EQ(got.stallTicks, want.stallTicks);
            end = std::max(end, got.end);
        }
        start = end + 777;
    }

    for (unsigned c = 0; c < count; ++c) {
        for (const char *counter :
             {"l1iHits", "l1iMisses", "l1dHits", "l1dMisses", "l2Hits",
              "l2Misses", "memAccesses", "writebacks"}) {
            const std::string path =
                detail::concat("caches", c, ".", counter);
            EXPECT_EQ(rig.stat(path), twin.stat(path)) << path;
        }
    }
    for (const char *counter :
         {"reads", "writes", "bytesRead", "rowMisses", "portQueueTicks"}) {
        const std::string path = detail::concat("stackedDram.", counter);
        EXPECT_EQ(rig.stat(path), twin.stat(path)) << path;
    }
    // A later core's misses queue behind the banks an earlier core
    // booked.
    if (count > 1) {
        EXPECT_GT(rig.stat("stackedDram.portQueueTicks"), 0.0);
    }
}

TEST(CoreModel, InOrderFetchLoopMatchesOpByOpWalk)
{
    for (const bool with_l2 : {false, true}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            for (const unsigned cores : {1u, 2u}) {
                SCOPED_TRACE(::testing::Message()
                             << "L2 " << with_l2 << ", seed " << seed
                             << ", cores " << cores);
                expectInOrderWalkMatchesReference(with_l2, seed, cores);
            }
        }
    }
}

TEST(CoreModel, SteadyStateRunNeverAllocates)
{
    // The miss window keeps its capacity across runs; DRAM and cache
    // state are sized at construction.
    for (const CoreParams &core :
         {cortexA7Params(), cortexA15Params(1.5)}) {
        for (const bool with_l2 : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << core.name << ", L2 " << with_l2);
            Rig rig(core, with_l2, 40 * tickNs, true);
            const OpTrace trace = mixedTrace(1);
            Tick start = rig.core->run(trace, 1000).end;

            const std::uint64_t before = mercuryAllocCalls.load();
            for (int i = 0; i < 3; ++i)
                start = rig.core->run(trace, start + 777).end;
            EXPECT_EQ(mercuryAllocCalls.load(), before)
                << "CoreModel::run allocated in steady state";
        }
    }
}

TEST(CoreModel, L2TurnsRepeatSweepsIntoL2Hits)
{
    // The Iridium argument (Sec. 4.2.1): with a 2 MB L2 the
    // instruction footprint stays on-stack-SRAM instead of flash.
    Rig with_l2(cortexA7Params(), true, 100 * tickNs);
    Rig without(cortexA7Params(), false, 100 * tickNs);

    OpTrace sweep;
    // 128 KiB code footprint: thrashes 32 KiB L1I, fits in L2.
    TraceBuilder(sweep).codePass(0, 128 * kiB, 10000);

    with_l2.core->run(sweep, 0);
    without.core->run(sweep, 0);
    auto warm_l2 = with_l2.core->run(sweep, tickSec);
    auto warm_no = without.core->run(sweep, tickSec);

    EXPECT_LT(warm_l2.elapsed(), warm_no.elapsed());
    // With the L2 the second sweep generates no memory traffic at
    // all: 2048 cold fills total vs 2048 per sweep without it.
    EXPECT_EQ(with_l2.caches->memoryAccesses(), 2048u);
    EXPECT_EQ(without.caches->memoryAccesses(), 4096u);
}

TEST(CoreModel, PresetsMatchPaperTable1)
{
    EXPECT_DOUBLE_EQ(cortexA7Params().activePowerW, 0.1);
    EXPECT_DOUBLE_EQ(cortexA7Params().areaMm2, 0.58);
    EXPECT_DOUBLE_EQ(cortexA15Params(1.0).activePowerW, 0.6);
    EXPECT_DOUBLE_EQ(cortexA15Params(1.5).activePowerW, 1.0);
    EXPECT_DOUBLE_EQ(cortexA15Params(1.5).areaMm2, 2.82);
    EXPECT_FALSE(cortexA7Params().outOfOrder);
    EXPECT_TRUE(cortexA15Params(1.0).outOfOrder);
}

TEST(CoreModel, RunResultAccountingIsConsistent)
{
    Rig rig(cortexA7Params(), false, 50 * tickNs);
    OpTrace trace;
    TraceBuilder(trace)
        .compute(500)
        .streamRead(0x2000, 4 * 64)
        .compute(500);
    auto r = rig.core->run(trace, 12345);
    EXPECT_EQ(r.start, 12345u);
    EXPECT_EQ(r.end, r.start + r.elapsed());
    EXPECT_EQ(r.computeTicks + r.stallTicks, r.elapsed());
}

} // anonymous namespace
