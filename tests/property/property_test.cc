/**
 * @file
 * Cross-module property tests: parameterized sweeps over geometry
 * and configuration space, checking invariants rather than specific
 * values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "kvstore/hash_table.hh"
#include "kvstore/hash.hh"
#include "kvstore/store.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/flash.hh"
#include "server/server_model.hh"
#include "sim/contract.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

namespace
{

using namespace mercury;
using namespace mercury::mem;

// ---------------------------------------------------------------
// Cache geometry sweep: (size KiB, associativity)
// ---------------------------------------------------------------

class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CacheGeometryTest, HitAfterInsertAcrossGeometries)
{
    auto [size_kib, assoc] = GetParam();
    CacheParams params;
    params.sizeBytes = size_kib * kiB;
    params.assoc = assoc;
    SetAssocCache cache(params);

    Rng rng(size_kib * 131 + assoc);
    std::vector<Addr> inserted;
    for (int i = 0; i < 200; ++i) {
        const Addr addr = rng.nextInt(1 * miB) & ~Addr(63);
        cache.insert(addr, false);
        EXPECT_TRUE(cache.contains(addr))
            << "freshly inserted line must be resident";
        inserted.push_back(addr);
    }
}

TEST_P(CacheGeometryTest, CapacityIsRespected)
{
    auto [size_kib, assoc] = GetParam();
    CacheParams params;
    params.sizeBytes = size_kib * kiB;
    params.assoc = assoc;
    SetAssocCache cache(params);

    // Insert exactly capacity distinct lines: no eviction needed.
    const unsigned lines = size_kib * kiB / 64;
    unsigned victims = 0;
    for (unsigned i = 0; i < lines; ++i) {
        if (cache.insert(i * 64, false).has_value())
            ++victims;
    }
    EXPECT_EQ(victims, 0u)
        << "a sequential fill of exactly capacity must not evict";

    // One more line in any set must evict exactly one.
    auto victim = cache.insert(lines * 64, false);
    EXPECT_TRUE(victim.has_value());
}

TEST_P(CacheGeometryTest, LruNeverEvictsTheMostRecent)
{
    auto [size_kib, assoc] = GetParam();
    CacheParams params;
    params.sizeBytes = size_kib * kiB;
    params.assoc = assoc;
    SetAssocCache cache(params);

    if (assoc < 2) {
        // A direct-mapped cache has no choice: a set conflict always
        // evicts the (only) resident line, recent or not.
        const Addr resident = 0x1040;
        const Addr conflicting = resident + size_kib * kiB;
        EXPECT_FALSE(cache.insert(resident, true).has_value());
        auto victim = cache.insert(conflicting, false);
        ASSERT_TRUE(victim.has_value());
        EXPECT_EQ(victim->lineAddr, resident);
        EXPECT_TRUE(victim->dirty);
        EXPECT_FALSE(cache.contains(resident));
        EXPECT_TRUE(cache.contains(conflicting));
        return;
    }

    Rng rng(99 + size_kib + assoc);
    Addr last = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.nextInt(4 * miB) & ~Addr(63);
        auto victim = cache.insert(addr, false);
        if (victim) {
            EXPECT_NE(victim->lineAddr, last)
                << "the immediately previous insert is MRU in its "
                   "set and must never be the victim";
        }
        last = addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_tuple(1u, 1u),
                      std::make_tuple(4u, 2u),
                      std::make_tuple(32u, 4u),
                      std::make_tuple(32u, 8u),
                      std::make_tuple(256u, 16u)));

// ---------------------------------------------------------------
// SetAssocCache against a textbook reference, in lockstep
// ---------------------------------------------------------------

/**
 * The textbook cache: division indexing, and a victim search that
 * first looks for an invalid way and only then scans for the oldest
 * stamp. SetAssocCache must agree with it on every result.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t size_bytes, unsigned assoc,
                   unsigned line_bytes)
        : assoc_(assoc), lineBytes_(line_bytes),
          numSets_(size_bytes / (std::uint64_t{line_bytes} * assoc)),
          ways_(numSets_ * assoc)
    {}

    bool
    lookup(Addr addr)
    {
        Way *way = find(addr);
        if (!way)
            return false;
        way->stamp = ++clock_;
        return true;
    }

    bool
    markDirty(Addr addr)
    {
        Way *way = find(addr);
        if (!way)
            return false;
        way->dirty = true;
        return true;
    }

    bool contains(Addr addr) { return find(addr) != nullptr; }

    std::optional<Victim>
    insert(Addr addr, bool dirty)
    {
        if (Way *way = find(addr)) {
            way->stamp = ++clock_;
            way->dirty = way->dirty || dirty;
            return std::nullopt;
        }
        Way *set = setOf(addr);
        Way *victim = nullptr;
        for (unsigned i = 0; i < assoc_ && !victim; ++i) {
            if (!set[i].valid)
                victim = &set[i];
        }
        if (!victim) {
            victim = &set[0];
            for (unsigned i = 1; i < assoc_; ++i) {
                if (set[i].stamp < victim->stamp)
                    victim = &set[i];
            }
        }
        std::optional<Victim> out;
        if (victim->valid) {
            const std::uint64_t set_index =
                (addr / lineBytes_) % numSets_;
            out = Victim{(victim->tag * numSets_ + set_index) *
                             lineBytes_,
                         victim->dirty};
        }
        *victim = Way{tagOf(addr), ++clock_, true, dirty};
        return out;
    }

    std::uint64_t numSets() const { return numSets_; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t tagOf(Addr addr) const
    {
        return addr / lineBytes_ / numSets_;
    }

    Way *
    setOf(Addr addr)
    {
        return &ways_[(addr / lineBytes_) % numSets_ * assoc_];
    }

    Way *
    find(Addr addr)
    {
        Way *set = setOf(addr);
        for (unsigned i = 0; i < assoc_; ++i) {
            if (set[i].valid && set[i].tag == tagOf(addr))
                return &set[i];
        }
        return nullptr;
    }

    unsigned assoc_;
    unsigned lineBytes_;
    std::uint64_t numSets_;
    std::uint64_t clock_ = 0;
    std::vector<Way> ways_;
};

class CacheReferenceTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CacheReferenceTest, MatchesTextbookCacheStepForStep)
{
    auto [size_kib, assoc] = GetParam();
    CacheParams params;
    params.sizeBytes = std::uint64_t{size_kib} * kiB;
    params.assoc = assoc;
    SetAssocCache cache(params);
    ReferenceCache reference(params.sizeBytes, assoc, params.lineBytes);
    ASSERT_EQ(cache.numSets(), reference.numSets());

    Rng rng(7 * size_kib + assoc);
    const std::uint64_t sets = reference.numSets();
    auto next_addr = [&]() -> Addr {
        if (rng.nextInt(2) == 0) {
            // Uniform over 4 GiB plus a high tag bit now and then:
            // unaligned, so the offset bits must be ignored.
            const Addr high = rng.nextInt(8) == 0 ? Addr{1} << 40 : 0;
            return high + rng.nextInt(4 * giB);
        }
        // Crowd a few sets with about twice as many tags as they
        // have ways, so fills keep evicting.
        const std::uint64_t set = rng.nextInt(std::min<std::uint64_t>(
            sets, 4));
        const std::uint64_t tag = rng.nextInt(2 * assoc + 2);
        return (tag * sets + set) * 64 + rng.nextInt(64);
    };

    std::uint64_t victims = 0;
    for (int step = 0; step < 40000; ++step) {
        const Addr addr = next_addr();
        const std::uint64_t op = rng.nextInt(10);
        switch (op) {
          case 0:
          case 1:
          case 2:
          case 3: {
            // A load (case 3: a store) that fills nothing: touch on
            // a hit, as CacheHierarchy does.
            const bool store = op == 3;
            const SetAssocCache::Probe p = cache.probe(addr);
            if (p.hit)
                cache.touch(p, store);
            const bool want = reference.lookup(addr);
            if (want && store)
                reference.markDirty(addr);
            ASSERT_EQ(p.hit, want) << "step " << step;
            break;
          }
          case 4:
            ASSERT_EQ(cache.contains(addr), reference.contains(addr))
                << "step " << step;
            break;
          default: {
            // An access that fills on a miss: probe, then touch or
            // fill, as CacheHierarchy does; case 9 through insert(),
            // as an L1 victim enters the L2.
            const bool dirty = rng.nextInt(2) == 0;
            std::optional<Victim> got;
            if (op == 9) {
                got = cache.insert(addr, dirty);
            } else if (const SetAssocCache::Probe p = cache.probe(addr);
                       p.hit) {
                cache.touch(p, dirty);
            } else {
                got = cache.fill(p, dirty);
            }
            const auto want = reference.insert(addr, dirty);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "step " << step;
            if (got) {
                ++victims;
                ASSERT_EQ(got->lineAddr, want->lineAddr)
                    << "step " << step;
                ASSERT_EQ(got->dirty, want->dirty) << "step " << step;
            }
            break;
          }
        }
    }
    EXPECT_GT(victims, 1000u) << "the stream must exercise eviction";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReferenceTest,
    ::testing::Values(std::make_tuple(1u, 1u),
                      std::make_tuple(4u, 2u),
                      std::make_tuple(32u, 4u),
                      std::make_tuple(32u, 8u),
                      std::make_tuple(256u, 16u),
                      // An 8 MiB, 16-way L2.
                      std::make_tuple(8192u, 16u)));

// ---------------------------------------------------------------
// CacheHierarchy against a hierarchy of textbook caches, in lockstep
// ---------------------------------------------------------------

/** One call a hierarchy made on its memory device. */
struct DeviceCall
{
    AccessType type;
    Addr addr;
    unsigned size;
    Tick now;

    bool operator==(const DeviceCall &) const = default;
};

/**
 * A memory device that logs every call. Its latency depends on the
 * line, so a wrong address or issue tick also shows up in the
 * completion times.
 */
class RecordingDevice : public MemDevice
{
  public:
    Tick
    access(AccessType type, Addr addr, unsigned size, Tick now) override
    {
        calls.push_back({type, addr, size, now});
        return now + (30 + (addr >> 6) % 16) * tickNs;
    }

    std::vector<DeviceCall> calls;
};

/**
 * The hierarchy walk over textbook caches with one scan per step:
 * lookup, then markDirty on a store hit or insert after a miss.
 * CacheHierarchy, which probes each level once, must agree with it.
 */
class ReferenceHierarchy
{
  public:
    ReferenceHierarchy(const HierarchyParams &params, MemDevice *memory)
        : params_(params), memory_(memory), l1i_(textbook(params.l1i)),
          l1d_(textbook(params.l1d))
    {
        if (params.hasL2)
            l2_.emplace(textbook(params.l2));
    }

    AccessResult
    access(CpuAccessKind kind, Addr addr, Tick now)
    {
        const bool ifetch = kind == CpuAccessKind::IFetch;
        ReferenceCache &l1 = ifetch ? l1i_ : l1d_;
        const CacheParams &l1_params = ifetch ? params_.l1i : params_.l1d;
        const bool store = kind == CpuAccessKind::Store;
        const Tick after_l1 = now + l1_params.hitLatency;

        if (l1.lookup(addr)) {
            ++counts[ifetch ? "l1iHits" : "l1dHits"];
            if (store)
                l1.markDirty(addr);
            return {after_l1, ServicedBy::L1};
        }
        ++counts[ifetch ? "l1iMisses" : "l1dMisses"];

        const AccessResult below = fillFromBelow(addr, store, after_l1);
        const auto victim = l1.insert(addr, store);
        if (victim && victim->dirty) {
            ++counts["writebacks"];
            if (l2_)
                l2_->insert(victim->lineAddr, true);
            else
                memory_->access(AccessType::Write, victim->lineAddr,
                                l1_params.lineBytes, below.completion);
        }
        return below;
    }

    /** Count per counter name, as CacheHierarchy registers them. */
    std::map<std::string, std::uint64_t> counts;

  private:
    static ReferenceCache
    textbook(const CacheParams &params)
    {
        return ReferenceCache(params.sizeBytes, params.assoc,
                              params.lineBytes);
    }

    AccessResult
    fillFromBelow(Addr addr, bool store, Tick now)
    {
        const unsigned line_bytes = params_.l1d.lineBytes;
        if (!l2_) {
            ++counts["memAccesses"];
            return {memory_->access(AccessType::Read, addr, line_bytes,
                                    now),
                    ServicedBy::Memory};
        }
        const Tick after_l2 = now + params_.l2.hitLatency;
        if (l2_->lookup(addr)) {
            ++counts["l2Hits"];
            if (store)
                l2_->markDirty(addr);
            return {after_l2, ServicedBy::L2};
        }
        ++counts["l2Misses"];
        ++counts["memAccesses"];
        const Tick mem_done = memory_->access(AccessType::Read, addr,
                                              line_bytes, after_l2);
        const auto victim = l2_->insert(addr, store);
        if (victim && victim->dirty) {
            ++counts["writebacks"];
            memory_->access(AccessType::Write, victim->lineAddr,
                            line_bytes, mem_done);
        }
        return {mem_done, ServicedBy::Memory};
    }

    HierarchyParams params_;
    MemDevice *memory_;
    ReferenceCache l1i_;
    ReferenceCache l1d_;
    std::optional<ReferenceCache> l2_;
};

class HierarchyReferenceTest : public ::testing::TestWithParam<bool>
{};

TEST_P(HierarchyReferenceTest, MatchesTextbookHierarchyStepForStep)
{
    const bool with_l2 = GetParam();
    HierarchyParams params;
    params.hasL2 = with_l2;

    stats::StatGroup root("root");
    RecordingDevice device;
    RecordingDevice reference_device;
    CacheHierarchy caches(params, &device, &root);
    ReferenceHierarchy reference(params, &reference_device);

    // Half the addresses crowd four L2 sets, and the L1 sets they
    // alias, with more tags than the L2 has ways, so every level keeps
    // evicting; the rest are cold and unaligned.
    const std::uint64_t l2_sets =
        params.l2.sizeBytes / (params.l2.lineBytes * params.l2.assoc);
    Rng rng(31 + 2 * with_l2);
    auto next_addr = [&]() -> Addr {
        if (rng.nextInt(2) == 0)
            return rng.nextInt(256 * miB);
        const std::uint64_t set = rng.nextInt(4);
        const std::uint64_t tag = rng.nextInt(2 * params.l2.assoc + 2);
        return (tag * l2_sets + set) * 64 + rng.nextInt(64);
    };
    constexpr CpuAccessKind kinds[] = {
        CpuAccessKind::IFetch, CpuAccessKind::Load, CpuAccessKind::Store};

    Tick now = 0;
    std::size_t checked_calls = 0;
    for (int step = 0; step < 30000; ++step) {
        const CpuAccessKind kind = kinds[rng.nextInt(3)];
        const Addr addr = next_addr();
        const AccessResult got = caches.access(kind, addr, now);
        const AccessResult want = reference.access(kind, addr, now);
        ASSERT_EQ(got.completion, want.completion) << "step " << step;
        ASSERT_EQ(got.source, want.source) << "step " << step;
        ASSERT_EQ(device.calls.size(), reference_device.calls.size())
            << "step " << step;
        for (; checked_calls < device.calls.size(); ++checked_calls) {
            ASSERT_TRUE(device.calls[checked_calls] ==
                        reference_device.calls[checked_calls])
                << "step " << step << ", device call " << checked_calls;
        }
        now += rng.nextInt(50) * tickNs;
    }

    for (const char *name : {"l1iHits", "l1iMisses", "l1dHits",
                             "l1dMisses", "l2Hits", "l2Misses",
                             "writebacks", "memAccesses"}) {
        const auto *stat = dynamic_cast<const stats::Scalar *>(
            root.find(std::string("caches.") + name));
        ASSERT_NE(stat, nullptr) << name;
        EXPECT_EQ(stat->value(),
                  static_cast<double>(reference.counts[name]))
            << name;
    }
    // The stream must reach what it is meant to check.
    EXPECT_GT(reference.counts["l1dMisses"], 1000u);
    if (with_l2) {
        EXPECT_GT(reference.counts["l2Hits"], 1000u);
    }
    EXPECT_GT(reference.counts["writebacks"], 1000u);
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutL2, HierarchyReferenceTest,
                         ::testing::Bool());

TEST(CacheGeometry, RejectsANonPowerOfTwoSetCount)
{
    contract::ScopedContractThrow guard;
    CacheParams params;
    params.sizeBytes = 24 * kiB;  // 96 sets of 4 x 64 B
    params.assoc = 4;
    EXPECT_THROW(SetAssocCache{params}, contract::ContractViolation);
}

TEST(DramGeometry, RejectsNonPowerOfTwoGeometry)
{
    contract::ScopedContractThrow guard;
    auto rejects = [](auto edit) {
        DramParams params = stackedDramParams();
        edit(params);
        EXPECT_THROW(DramModel{params}, contract::ContractViolation);
    };
    rejects([](DramParams &p) { p.capacity = 3 * giB; });
    rejects([](DramParams &p) { p.numPorts = 12; });
    rejects([](DramParams &p) { p.banksPerPort = 6; });
    rejects([](DramParams &p) { p.rowBytes = 1536; });
}

TEST(DramGeometry, EveryPresetConstructs)
{
    contract::ScopedContractThrow guard;
    for (const DramParams &params :
         {stackedDramParams(), ddr3Params(), ddr4Params(),
          lpddr3Params(), hmc1Params(), wideIoParams(),
          octopusParams()}) {
        SCOPED_TRACE(params.name);
        EXPECT_NO_THROW({
            DramModel dram(params);
            EXPECT_GT(dram.access(AccessType::Read, 0x12345, 64, 0),
                      params.arrayLatency);
        });
    }
}

// ---------------------------------------------------------------
// Flash page-size sweep
// ---------------------------------------------------------------

class FlashPageSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(FlashPageSweep, SequentialReadCostsOneSensePerPage)
{
    FlashParams params;
    params.numChannels = 1;
    params.capacity = 16 * miB;
    params.pageBytes = GetParam();
    params.pagesPerBlock = 32;
    FlashController flash(params);

    // Map 16 pages, drain, then stream them.
    const unsigned pages = 16;
    Tick now = 0;
    for (unsigned p = 0; p < pages; ++p) {
        for (unsigned line = 0; line < params.pageBytes / 64;
             ++line) {
            now = flash.access(AccessType::Write,
                               p * params.pageBytes + line * 64, 64,
                               now);
        }
    }
    now = flash.drainWrites(now);

    const Tick begin = now;
    for (unsigned p = 0; p < pages; ++p) {
        for (unsigned line = 0; line < params.pageBytes / 64;
             ++line) {
            now = flash.access(AccessType::Read,
                               p * params.pageBytes + line * 64, 64,
                               now);
        }
    }
    const Tick elapsed = now - begin;
    const Tick transfer_per_page = secondsToTicks(
        static_cast<double>(params.pageBytes) /
        params.channelBandwidth);
    const Tick expected =
        pages * (params.readLatency + transfer_per_page);
    EXPECT_GE(elapsed, pages * params.readLatency);
    // One sense per page plus line transfers, within 15% slack.
    EXPECT_LE(elapsed,
              expected + expected / 7);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, FlashPageSweep,
                         ::testing::Values(512u, 2048u, 4096u,
                                           16384u));

// ---------------------------------------------------------------
// Hash-table load sweep
// ---------------------------------------------------------------

class TableLoadSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TableLoadSweep, MeanChainStaysBoundedByExpansion)
{
    using namespace mercury::kvstore;
    const unsigned items = GetParam();

    HashTable table(6);  // 64 buckets; must expand under load
    std::vector<std::unique_ptr<char[]>> storage;
    for (unsigned i = 0; i < items; ++i) {
        const std::string key = "k" + std::to_string(i);
        storage.push_back(std::make_unique<char[]>(
            Item::totalSize(key.size(), 1)));
        Item *item = new (storage.back().get()) Item();
        item->setKey(key);
        item->setValue("v");
        table.insert(item, hashKey(key));
    }

    // Load factor must be kept under the expansion threshold.
    EXPECT_LT(table.loadFactor(), 1.5 + 1e-9);

    double chain_sum = 0;
    for (unsigned i = 0; i < items; ++i) {
        const std::string key = "k" + std::to_string(i);
        chain_sum += table.find(key, hashKey(key)).chainLength;
    }
    EXPECT_LT(chain_sum / items, 2.5)
        << "mean probe length must stay O(1) at any scale";
}

INSTANTIATE_TEST_SUITE_P(Loads, TableLoadSweep,
                         ::testing::Values(100u, 1000u, 10000u,
                                           50000u));

// ---------------------------------------------------------------
// Server-model request-size sweep
// ---------------------------------------------------------------

class ServerSizeSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ServerSizeSweep, InvariantsAcrossRequestSizes)
{
    using namespace mercury::server;
    const std::uint32_t size = GetParam();

    ServerModelParams params;
    params.core = cpu::cortexA7Params();
    params.withL2 = false;
    params.storeMemLimit = 64 * miB;
    ServerModel node(params);

    const Measurement get = node.measureGets(size, 8, 2);
    const Measurement put = node.measurePuts(size, 8, 2);

    // Throughput and latency are reciprocal.
    EXPECT_NEAR(get.avgTps * get.avgRttUs / 1e6, 1.0, 0.05);
    // PUTs never beat GETs of the same size.
    EXPECT_LE(put.avgTps, get.avgTps * 1.02);
    // Breakdown fractions form a partition (wire, kernel and
    // NIC-cache time are reported separately since the datapath
    // split; networkFraction() re-aggregates the first three).
    const double total = get.avgBreakdown.wireFraction() +
                         get.avgBreakdown.netstackFraction() +
                         get.avgBreakdown.nicCacheFraction() +
                         get.avgBreakdown.hashFraction() +
                         get.avgBreakdown.memcachedFraction();
    EXPECT_NEAR(total, 1.0, 1e-6);
    EXPECT_NEAR(get.avgBreakdown.networkFraction() +
                    get.avgBreakdown.hashFraction() +
                    get.avgBreakdown.memcachedFraction(),
                1.0, 1e-6);
    // Goodput equals size x TPS.
    EXPECT_NEAR(get.goodput, get.avgTps * size,
                0.05 * get.goodput + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ServerSizeSweep,
                         ::testing::Values(64u, 512u, 4096u, 32768u,
                                           262144u));

// ---------------------------------------------------------------
// DRAM latency monotonicity at the device level
// ---------------------------------------------------------------

TEST(DramLatencyProperty, ServerTpsIsMonotoneInArrayLatency)
{
    using namespace mercury::server;
    double last_tps = 1e18;
    for (Tick latency : {10u, 30u, 50u, 100u}) {
        ServerModelParams params;
        params.core = cpu::cortexA7Params();
        params.withL2 = false;
        params.dramArrayLatency = latency * tickNs;
        params.storeMemLimit = 32 * miB;
        ServerModel node(params);
        const double tps = node.measureGets(64, 8, 2).avgTps;
        EXPECT_LT(tps, last_tps) << latency;
        last_tps = tps;
    }
}

// ---------------------------------------------------------------
// Store/workload end-to-end property
// ---------------------------------------------------------------

TEST(StoreZipfProperty, HitRateImprovesWithSkewUnderEviction)
{
    using namespace mercury::kvstore;
    using namespace mercury::workload;

    auto run = [](double theta) {
        StoreParams sp;
        sp.memLimit = 2 * miB;  // holds ~25% of the keyspace
        Store store(sp);

        WorkloadParams wp;
        wp.numKeys = 20000;
        wp.popularity = Popularity::Zipf;
        wp.zipfTheta = theta;
        wp.valueSize = ValueSizeDist::fixed(64);
        wp.getFraction = 0.5;
        wp.seed = 5;
        WorkloadGenerator gen(wp);

        std::uint64_t hits = 0, gets = 0;
        for (int i = 0; i < 60000; ++i) {
            const Request request = gen.next();
            const std::string key =
                WorkloadGenerator::keyFor(request.keyId);
            if (request.op == Request::Op::Get) {
                ++gets;
                if (store.get(key).hit)
                    ++hits;
            } else {
                store.set(key, "0123456789abcdef");
            }
        }
        return static_cast<double>(hits) /
               static_cast<double>(gets);
    };

    const double skewed = run(0.99);
    const double flat = run(0.3);
    EXPECT_GT(skewed, flat)
        << "LRU caching must exploit popularity skew";
}

} // anonymous namespace
