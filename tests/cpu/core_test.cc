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
#include "mem/fetch_memo.hh"
#include "server/address_map.hh"
#include "server/calibration.hh"
#include "sim/contract.hh"
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
          default: {
            const std::uint64_t lines = 1 + rng.nextInt(8);
            const Addr base = line_in(64 * miB);
            for (std::uint64_t l = 0; l < lines; ++l)
                trace.push_back(
                    Op::store(base + l * 64, Stream::Sequential));
            break;
          }
        }
    }
    return trace;
}

/** The stacked DRAM at 40 ns, with refresh on unless @p refresh is
 * false. */
DramParams
sharedDramParams(bool refresh = true)
{
    DramParams dp = stackedDramParams();
    dp.arrayLatency = 40 * tickNs;
    dp.modelRefresh = refresh;
    return dp;
}

/**
 * @p count A7 cores, each with its own hierarchy ("caches0", ...) in
 * front of one DRAM (by default with refresh on), so that one core's
 * fetches can meet banks another core left busy into the future.
 */
struct SharedDramRig
{
    /** @p memo, when given, is shared by every hierarchy; an L2 has
     * @p l2_bytes. */
    SharedDramRig(bool with_l2, unsigned count, FetchMemo *memo = nullptr,
                  const DramParams &dp = sharedDramParams(),
                  std::uint64_t l2_bytes = 2 * miB)
    {
        dram = std::make_unique<DramModel>(dp, &stats);
        for (unsigned i = 0; i < count; ++i) {
            HierarchyParams hp =
                defaultHierarchy(CoreType::CortexA7, with_l2);
            hp.name = detail::concat("caches", i);
            hp.l2.sizeBytes = l2_bytes;
            caches.push_back(std::make_unique<CacheHierarchy>(
                hp, dram.get(), &stats, memo));
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

/**
 * The six code passes of one kernel-TCP GET with one packet each
 * way, at their AddressMap offsets: request path, rx packet path,
 * hash of an 8-byte key, memcached GET, request path, tx packet path.
 * Together they overflow the 32 KiB L1I.
 */
OpTrace
getCodePasses()
{
    const server::Calibration cal{};
    const server::AddressMap map(0, 224 * miB + miB);
    const Addr request_code = map.netstackCode() + 64 * kiB;
    OpTrace trace;
    TraceBuilder(trace)
        .codePass(request_code, cal.netstackRequestPathBytes,
                  cal.netstackInstrPerRequest / 2)
        .codePass(map.netstackCode(), cal.netstackRxPathBytes,
                  cal.netstackInstrPerRxPacket)
        .codePass(map.hashCode(), cal.hashCodeBytes,
                  cal.hashInstrBase + cal.hashInstrPerKeyByte * 8)
        .codePass(map.memcachedCode(), cal.memcachedGetPathBytes,
                  cal.memcachedInstrGet)
        .codePass(request_code, cal.netstackRequestPathBytes,
                  cal.netstackInstrPerRequest / 2)
        .codePass(map.netstackCode() + 32 * kiB, cal.netstackTxPathBytes,
                  cal.netstackInstrPerTxPacket);
    return trace;
}

/** A few seeded data ops, which leave the L1I alone. */
OpTrace
dataOps(Rng &rng)
{
    OpTrace trace;
    TraceBuilder b(trace);
    auto line_in = [&](std::uint64_t bytes) -> Addr {
        return rng.nextInt(bytes) & ~Addr(63);
    };
    b.chaseLoad(line_in(64 * miB))
        .compute(rng.nextInt(400))
        .randomStore(line_in(64 * miB))
        .streamRead(line_in(64 * miB), (1 + rng.nextInt(8)) * 64);
    return trace;
}

/**
 * A rig whose hierarchies share a fetch memo, beside a twin without
 * one that the op-by-op reference walks. Every step goes to both,
 * one after another on a common clock, and must agree.
 */
struct MemoTwins
{
    MemoTwins(bool with_l2, unsigned count,
              const DramParams &dp = sharedDramParams(),
              std::uint64_t l2_bytes = 2 * miB)
        : rig(with_l2, count, &memo, dp, l2_bytes),
          twin(with_l2, count, nullptr, dp, l2_bytes)
    {}

    /** Run @p trace on core @p c. */
    void
    run(unsigned c, const OpTrace &trace)
    {
        runFrom(c, trace, now);
    }

    /** Run @p trace on core @p c from @p start, which may lie before
     * the end of an earlier run. */
    void
    runFrom(unsigned c, const OpTrace &trace, Tick start)
    {
        const RunResult got = rig.cores[c]->run(trace, start);
        const RunResult want = referenceInOrderRun(
            cortexA7Params(), *twin.caches[c], trace, start);
        EXPECT_EQ(got.start, want.start);
        EXPECT_EQ(got.end, want.end);
        EXPECT_EQ(got.instructions, want.instructions);
        EXPECT_EQ(got.memOps, want.memOps);
        EXPECT_EQ(got.computeTicks, want.computeTicks);
        EXPECT_EQ(got.stallTicks, want.stallTicks);
        now = std::max({now, got.end, want.end}) + 777;
    }

    /** One access(IFetch) of @p addr on core @p c. */
    void
    fetch(unsigned c, Addr addr)
    {
        const AccessResult got =
            rig.caches[c]->access(CpuAccessKind::IFetch, addr, now);
        const AccessResult want =
            twin.caches[c]->access(CpuAccessKind::IFetch, addr, now);
        EXPECT_EQ(got.completion, want.completion) << addr;
        EXPECT_EQ(got.source, want.source) << addr;
        now = std::max(got.completion, want.completion) + 777;
    }

    void
    flushAll(unsigned c)
    {
        rig.caches[c]->flushAll();
        twin.caches[c]->flushAll();
    }

    /** Every hierarchy counter and the DRAM's agree. */
    void
    expectSameCounters() const
    {
        for (std::size_t c = 0; c < rig.caches.size(); ++c) {
            for (const char *counter :
                 {"l1iHits", "l1iMisses", "l1dHits", "l1dMisses",
                  "l2Hits", "l2Misses", "memAccesses", "writebacks"}) {
                const std::string path =
                    detail::concat("caches", c, ".", counter);
                EXPECT_EQ(rig.stat(path), twin.stat(path)) << path;
            }
        }
        for (const char *counter :
             {"reads", "writes", "bytesRead", "rowHits", "rowMisses",
              "portQueueTicks"}) {
            const std::string path =
                detail::concat("stackedDram.", counter);
            EXPECT_EQ(rig.stat(path), twin.stat(path)) << path;
        }
    }

    std::uint64_t
    replayed(unsigned c) const
    {
        return rig.caches[c]->replayedPasses();
    }

    std::uint64_t
    closed(unsigned c) const
    {
        return rig.caches[c]->closedReplays();
    }

    FetchMemo memo;
    SharedDramRig rig;
    SharedDramRig twin;
    Tick now = 1000;
};

TEST(FetchMemo, RecurringGetPassesReplayExactly)
{
    const OpTrace get = getCodePasses();
    for (const bool with_l2 : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "L2 " << with_l2);
        MemoTwins twins(with_l2, 1);
        Rng rng(7);
        for (int i = 0; i < 60; ++i) {
            twins.run(0, get);
            twins.run(0, dataOps(rng));
            if (i % 10 == 9) {
                // A pass the memo lacks, after replays left the L1I
                // arrays stale.
                OpTrace other;
                TraceBuilder(other).codePass(0x100000 + 64 * i, 40 * 64,
                                             100 + i);
                twins.run(0, other);
            }
        }
        twins.expectSameCounters();
        // The loop settles within two GETs of any other code; every
        // later pass replays.
        EXPECT_GE(twins.replayed(0), 6u * 40);
    }
}

TEST(FetchMemo, HitRunsBeforeMissesReplayExactly)
{
    // P covers sets 0-127; Q1 and Q2 give sets 64-127 a third tag
    // each, so in the 2-way L1I P's first 64 lines hit and the rest
    // miss. P's first 30 lines run one instruction more: the boundary
    // sits inside the run of hits that the replay times in closed
    // form before the first miss.
    OpTrace trace;
    TraceBuilder(trace)
        .codePass(0x200000, 128 * 64, 128 * 5 + 30)
        .codePass(0x300000 + 64 * 64, 64 * 64, 333)
        .codePass(0x340000 + 64 * 64, 64 * 64, 333);
    for (const bool with_l2 : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "L2 " << with_l2);
        MemoTwins twins(with_l2, 1);
        for (int i = 0; i < 20; ++i)
            twins.run(0, trace);
        twins.expectSameCounters();
        EXPECT_GE(twins.replayed(0), 3u * 17);
    }
}

TEST(FetchMemo, HierarchiesSharingOneMemoStayExact)
{
    const OpTrace get = getCodePasses();
    for (const bool with_l2 : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "L2 " << with_l2);
        MemoTwins twins(with_l2, 2);
        Rng rng(11);
        // Core 0 learns the GET loop; core 1 starts from an L1I full
        // of other code, then meets the states core 0 recorded.
        for (int i = 0; i < 10; ++i)
            twins.run(0, get);
        OpTrace other;
        TraceBuilder(other)
            .codePass(0x100000, 300 * 64, 4000)
            .codePass(0x140000, 200 * 64, 999);
        twins.run(1, other);
        const std::uint32_t learned = twins.memo.states();
        for (int i = 0; i < 50; ++i) {
            twins.run(0, get);
            twins.run(1, get);
            twins.run(i % 2, dataOps(rng));
        }
        twins.expectSameCounters();
        EXPECT_GE(twins.replayed(0), 6u * 50);
        EXPECT_GE(twins.replayed(1), 6u * 45);
        // Core 1 joins the loop core 0 recorded: a loop of its own
        // would take two GETs of new states.
        EXPECT_LT(twins.memo.states(), learned + 2 * 6);
        EXPECT_GT(twins.rig.stat("stackedDram.portQueueTicks"), 0.0);
    }
}

TEST(FetchMemo, FlushAndIFetchBetweenReplaysStayExact)
{
    const OpTrace get = getCodePasses();
    for (const bool with_l2 : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "L2 " << with_l2);
        MemoTwins twins(with_l2, 1);
        Rng rng(13);
        for (int i = 0; i < 60; ++i) {
            twins.run(0, get);
            // The same phase each time, so that the memo's budget
            // holds the states these leave.
            if (i % 10 == 3)
                twins.flushAll(0);
            if (i % 10 == 7) {
                // One line of each pass, and lines just past them:
                // some hit and some miss in the true L1I.
                for (const Op &pass : get) {
                    twins.fetch(0, pass.addr + 64 * (pass.lines / 2));
                    twins.fetch(0, pass.addr + 64 * pass.lines);
                }
            }
            twins.run(0, dataOps(rng));
        }
        twins.expectSameCounters();
        EXPECT_GE(twins.replayed(0), 6u * 40);
    }
}

TEST(FetchMemo, PassLongerThanTheL1IReplaysExactly)
{
    // 800 lines: each set of the 2-way, 256-set L1I is touched at
    // least three times in one pass.
    OpTrace trace = getCodePasses();
    TraceBuilder(trace).codePass(0x1c0000, 800 * 64, 50001);
    for (const bool with_l2 : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "L2 " << with_l2);
        MemoTwins twins(with_l2, 1);
        Rng rng(17);
        for (int i = 0; i < 30; ++i) {
            twins.run(0, trace);
            twins.run(0, dataOps(rng));
        }
        twins.expectSameCounters();
        EXPECT_GE(twins.replayed(0), 7u * 25);
    }
}

TEST(FetchMemo, FullMemoFallsBackToWalking)
{
    const OpTrace get = getCodePasses();
    for (const bool with_l2 : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "L2 " << with_l2);
        MemoTwins twins(with_l2, 3);
        for (int i = 0; i < 10; ++i)
            twins.run(0, get);

        // Core 1 fills the memo with passes that do not recur.
        Rng rng(19);
        for (int i = 0; i < 1000 && twins.memo.states() <
                                        FetchMemo::maxStates; ++i) {
            const std::uint64_t lines = 1 + rng.nextInt(96);
            OpTrace pass;
            TraceBuilder(pass).codePass(
                0x100000 + (rng.nextInt(64 * kiB) & ~Addr(63)),
                lines * 64, rng.nextInt(3 * lines));
            twins.run(1, pass);
        }
        ASSERT_EQ(twins.memo.states(), FetchMemo::maxStates);

        // Core 0 still replays its loop; core 2 starts outside the
        // full memo and walks; core 1 walks its passes again.
        const std::uint64_t before = twins.replayed(0);
        for (int i = 0; i < 20; ++i) {
            twins.run(0, get);
            twins.run(2, get);
            twins.run(1, mixedTrace(23));
        }
        twins.expectSameCounters();
        EXPECT_EQ(twins.replayed(0) - before, 6u * 20);
        EXPECT_EQ(twins.replayed(2), 0u);
        EXPECT_EQ(twins.memo.states(), FetchMemo::maxStates);
    }
}

/**
 * Three 64-line passes, @p period bytes apart from @p base, that share
 * their L1I sets (@p period a multiple of the 16 KiB set span): in
 * the 2-way L1I each pass evicts the one before the last, so every
 * line of every pass misses, the first line included.
 */
void
thrashingPasses(TraceBuilder &b, Addr base, std::uint64_t period)
{
    for (std::uint64_t k = 0; k < 3; ++k)
        b.codePass(base + k * period, 64 * 64, 64 * 5 + 7);
}

OpTrace
thrashingPasses(Addr base, std::uint64_t period = 16 * kiB)
{
    OpTrace trace;
    TraceBuilder b(trace);
    thrashingPasses(b, base, period);
    return trace;
}

/** Ticks DRAM accesses spent waiting for a busy bank or port: the
 * queue ticks beyond the array latency every access pays. */
double
dramWaitTicks(const SharedDramRig &rig)
{
    return rig.stat("stackedDram.portQueueTicks") -
           (rig.stat("stackedDram.reads") + rig.stat("stackedDram.writes")) *
               static_cast<double>(rig.dram->params().arrayLatency);
}

TEST(FetchMemo, IdleClosedPageDramClosesEveryReplay)
{
    // Closed page, refresh off, and nothing else on the DRAM: every
    // miss of a replayed pass finds its bank idle.
    MemoTwins twins(false, 1, sharedDramParams(false));
    const OpTrace thrash = thrashingPasses(0x200000);
    const OpTrace get = getCodePasses();
    for (int i = 0; i < 20; ++i) {
        twins.run(0, thrash);
        twins.run(0, get);
    }
    twins.expectSameCounters();
    EXPECT_GE(twins.replayed(0), 9u * 18);
    EXPECT_EQ(twins.closed(0), twins.replayed(0));
    EXPECT_EQ(dramWaitTicks(twins.rig), 0.0);
}

TEST(FetchMemo, DirtyVictimInTheCodeBankWalksThenCloses)
{
    // Before each round of passes, a store and four loads into one
    // L1D set evict the stored line. Its writeback books the code's
    // bank (bank 0), or in the second case bank 1 and so only the
    // port they share, from the last load's completion on: the first
    // fetch miss waits for it on the per-call path, and the rest of
    // the pass closes.
    for (const Addr bank_base : {Addr{0}, 32 * miB}) {
        SCOPED_TRACE(::testing::Message() << "victim bank base "
                                          << bank_base);
        MemoTwins twins(false, 1, sharedDramParams(false));
        for (int i = 0; i < 20; ++i) {
            OpTrace trace;
            TraceBuilder b(trace);
            const Addr victim =
                bank_base + 16 * miB + static_cast<Addr>(i) * 64 * kiB;
            b.randomStore(victim);
            for (Addr k = 1; k <= 4; ++k)
                b.chaseLoad(victim + k * 8 * kiB);
            thrashingPasses(b, 0x200000, 16 * kiB);
            twins.run(0, trace);
        }
        twins.expectSameCounters();
        EXPECT_GE(twins.rig.stat("stackedDram.writes"), 19.0);
        EXPECT_GT(dramWaitTicks(twins.rig), 0.0);
        EXPECT_GE(twins.replayed(0), 3u * 18);
        EXPECT_EQ(twins.closed(0), twins.replayed(0));
    }
}

TEST(FetchMemo, SecondCoreMeetsABankBusyIntoTheFuture)
{
    // Both cores run the same code from the same tick, core 0 first:
    // core 1's first miss finds the bank booked until core 0's last
    // miss, waits on the per-call path, then closes the rest.
    MemoTwins twins(false, 2, sharedDramParams(false));
    const OpTrace thrash = thrashingPasses(0x200000);
    for (int i = 0; i < 20; ++i) {
        const Tick start = twins.now;
        twins.runFrom(0, thrash, start);
        twins.runFrom(1, thrash, start);
    }
    twins.expectSameCounters();
    EXPECT_GT(dramWaitTicks(twins.rig), 0.0);
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_GE(twins.replayed(c), 3u * 18) << c;
        EXPECT_EQ(twins.closed(c), twins.replayed(c)) << c;
    }
}

TEST(FetchMemo, PassAcrossTwoBanksKeepsThePerCallReplay)
{
    // Each pass straddles a boundary of the 32 MiB banks.
    MemoTwins twins(false, 1, sharedDramParams(false));
    const OpTrace thrash = thrashingPasses(32 * miB - 32 * 64, 32 * miB);
    for (int i = 0; i < 20; ++i)
        twins.run(0, thrash);
    twins.expectSameCounters();
    EXPECT_GE(twins.replayed(0), 3u * 18);
    EXPECT_EQ(twins.closed(0), 0u);
}

TEST(FetchMemo, OpenPageOrRefreshKeepsThePerCallReplay)
{
    DramParams open_page = sharedDramParams(false);
    open_page.pagePolicy = PagePolicy::Open;
    for (const DramParams &dp : {open_page, sharedDramParams(true)}) {
        SCOPED_TRACE(::testing::Message()
                     << "open page " << (dp.pagePolicy == PagePolicy::Open)
                     << ", refresh " << dp.modelRefresh);
        MemoTwins twins(false, 1, dp);
        const OpTrace thrash = thrashingPasses(0x200000);
        const OpTrace get = getCodePasses();
        for (int i = 0; i < 20; ++i) {
            twins.run(0, thrash);
            twins.run(0, get);
        }
        twins.expectSameCounters();
        EXPECT_GE(twins.replayed(0), 9u * 18);
        EXPECT_EQ(twins.closed(0), 0u);
    }
}

/** A DramModel subclass, as a sampling wrapper is: it counts its
 * calls. */
class CountingDram : public DramModel
{
  public:
    using DramModel::DramModel;

    Tick
    access(AccessType type, Addr addr, unsigned size, Tick now) override
    {
        ++calls;
        return DramModel::access(type, addr, size, now);
    }

    std::uint64_t calls = 0;
};

TEST(FetchMemo, DramSubclassKeepsThePerCallReplay)
{
    // Only an exact DramModel closes replays, so every miss still
    // reaches an override of access().
    stats::StatGroup stats{"rig"};
    CountingDram dram(sharedDramParams(false), &stats);
    FetchMemo memo;
    CacheHierarchy caches(defaultHierarchy(CoreType::CortexA7, false),
                          &dram, &stats, &memo);
    CoreModel core(cortexA7Params(), &caches);
    const OpTrace thrash = thrashingPasses(0x200000);
    Tick now = 1000;
    for (int i = 0; i < 20; ++i)
        now = core.run(thrash, now).end + 777;
    EXPECT_GE(caches.replayedPasses(), 3u * 18);
    EXPECT_EQ(caches.closedReplays(), 0u);
    EXPECT_EQ(static_cast<double>(dram.calls),
              statValue(stats, "caches.l1iMisses"));
}

/** The A7's L2 cut to 64 KiB: 128 sets of 8 ways, a set every 8 KiB,
 * as in its L1D. */
constexpr std::uint64_t smallL2Bytes = 64 * kiB;

/**
 * Six accesses, stores if @p store, to lines of L2 (and L1D) set
 * @p set that no earlier round touched. In the 64 KiB L2 they push
 * the oldest of the set's three thrashingPasses lines out.
 */
OpTrace
crowdL2Set(unsigned round, unsigned set, bool store)
{
    OpTrace trace;
    TraceBuilder b(trace);
    for (Addr j = 0; j < 6; ++j) {
        const Addr addr =
            16 * miB + round * 64 * kiB + j * 8 * kiB + set * 64;
        if (store)
            b.randomStore(addr);
        else
            b.chaseLoad(addr);
    }
    return trace;
}

/** A counter of hierarchy @p c's twin under test. */
double
hierarchyStat(const MemoTwins &twins, unsigned c, const char *counter)
{
    return twins.rig.stat(detail::concat("caches", c, ".", counter));
}

TEST(FetchMemo, WarmL2HitsReplayWithoutDeviceSteps)
{
    // The 2 MB L2 holds the GET's code, as Iridium's does: once warm,
    // every L1I miss of a replayed pass hits the L2, and no pass
    // takes a device step.
    MemoTwins twins(true, 1);
    const OpTrace get = getCodePasses();
    for (int i = 0; i < 10; ++i)
        twins.run(0, get);
    const double l1i_misses = hierarchyStat(twins, 0, "l1iMisses");
    const double l2_hits = hierarchyStat(twins, 0, "l2Hits");
    const double l2_misses = hierarchyStat(twins, 0, "l2Misses");
    const double reads = twins.rig.stat("stackedDram.reads");
    const std::uint64_t replayed = twins.replayed(0);
    for (int i = 0; i < 20; ++i)
        twins.run(0, get);
    twins.expectSameCounters();
    const double misses = hierarchyStat(twins, 0, "l1iMisses") - l1i_misses;
    EXPECT_GT(misses, 20 * 400.0);
    EXPECT_EQ(twins.replayed(0) - replayed, 6u * 20);
    EXPECT_EQ(hierarchyStat(twins, 0, "l2Misses"), l2_misses);
    EXPECT_EQ(hierarchyStat(twins, 0, "l2Hits") - l2_hits, misses);
    EXPECT_EQ(twins.rig.stat("stackedDram.reads"), reads);
}

TEST(FetchMemo, EvictedCodeLineMissesToTheDevice)
{
    // Each odd round first stores to six new lines of L2 set 40,
    // which push a code line of that set out of the 64 KiB L2. The
    // replay then misses that line to the DRAM, and the misses it
    // sets off in the set evict a dirty stored line, which is written
    // back. Even rounds run the code alone: every one of the three
    // passes' 192 L1I misses hits the L2 again.
    MemoTwins twins(true, 1, sharedDramParams(), smallL2Bytes);
    const OpTrace thrash = thrashingPasses(0x200000);
    for (int i = 0; i < 3; ++i)
        twins.run(0, thrash);
    double code_misses = 0;
    double code_writes = 0;
    for (unsigned round = 1; round <= 20; ++round) {
        if (round % 2)
            twins.run(0, crowdL2Set(round, 40, true));
        const double l2_misses = hierarchyStat(twins, 0, "l2Misses");
        const double writes = twins.rig.stat("stackedDram.writes");
        const double l2_hits = hierarchyStat(twins, 0, "l2Hits");
        const std::uint64_t replayed = twins.replayed(0);
        twins.run(0, thrash);
        EXPECT_EQ(twins.replayed(0) - replayed, 3u) << round;
        const double code_hits =
            hierarchyStat(twins, 0, "l2Hits") - l2_hits;
        if (round % 2) {
            code_misses += hierarchyStat(twins, 0, "l2Misses") - l2_misses;
            code_writes += twins.rig.stat("stackedDram.writes") - writes;
            EXPECT_LT(code_hits, 3 * 64.0) << round;
        } else {
            EXPECT_EQ(hierarchyStat(twins, 0, "l2Misses"), l2_misses)
                << round;
            EXPECT_EQ(code_hits, 3 * 64.0) << round;
        }
    }
    twins.expectSameCounters();
    EXPECT_GE(code_misses, 10.0);
    EXPECT_GT(code_writes, 0.0);
}

TEST(FetchMemo, L2MissBetweenL2HitsReplaysExactly)
{
    // Clean loads push a code line of L2 set 40 out before each odd
    // round, so line 40 of a pass misses to the DRAM between runs of
    // L2 hits on both sides. The first 50 lines run one instruction
    // more, so that boundary falls after the miss.
    OpTrace code;
    TraceBuilder b(code);
    for (Addr k = 0; k < 3; ++k)
        b.codePass(0x200000 + k * 16 * kiB, 64 * 64, 64 * 5 + 50);
    MemoTwins twins(true, 1, sharedDramParams(), smallL2Bytes);
    for (int i = 0; i < 3; ++i)
        twins.run(0, code);
    const std::uint64_t replayed = twins.replayed(0);
    const double l2_hits = hierarchyStat(twins, 0, "l2Hits");
    const double l2_misses = hierarchyStat(twins, 0, "l2Misses");
    for (unsigned round = 1; round <= 20; ++round) {
        if (round % 2)
            twins.run(0, crowdL2Set(round, 40, false));
        twins.run(0, code);
    }
    twins.expectSameCounters();
    EXPECT_EQ(twins.replayed(0) - replayed, 3u * 20);
    // The loads miss the L2 60 times; the code's own misses add more.
    EXPECT_GT(hierarchyStat(twins, 0, "l2Misses") - l2_misses, 60.0);
    EXPECT_GT(hierarchyStat(twins, 0, "l2Hits") - l2_hits,
              3 * 64 * 10.0);
}

TEST(FetchMemo, HierarchiesSharingOneMemoKeepTheirOwnL2s)
{
    // Both hierarchies replay the same passes from one memo, each in
    // front of its own 64 KiB L2. Stores crowd only core 1's L2, which
    // loses code lines; core 0's replays keep hitting its own L2.
    MemoTwins twins(true, 2, sharedDramParams(), smallL2Bytes);
    const OpTrace thrash = thrashingPasses(0x200000);
    for (int i = 0; i < 3; ++i) {
        twins.run(0, thrash);
        twins.run(1, thrash);
    }
    const double l2_hits = hierarchyStat(twins, 0, "l2Hits");
    const double l2_misses = hierarchyStat(twins, 0, "l2Misses");
    const double l2_misses_1 = hierarchyStat(twins, 1, "l2Misses");
    for (unsigned round = 1; round <= 20; ++round) {
        twins.run(1, crowdL2Set(round, 40, true));
        twins.run(0, thrash);
        twins.run(1, thrash);
    }
    twins.expectSameCounters();
    EXPECT_GE(twins.replayed(0), 3u * 20);
    EXPECT_GE(twins.replayed(1), 3u * 20);
    EXPECT_EQ(hierarchyStat(twins, 0, "l2Hits") - l2_hits, 3 * 64 * 20.0);
    EXPECT_EQ(hierarchyStat(twins, 0, "l2Misses"), l2_misses);
    EXPECT_GT(hierarchyStat(twins, 1, "l2Misses") - l2_misses_1, 120.0);
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
