/**
 * @file
 * End-to-end timing model of a single-core Mercury/Iridium server
 * node running the functional key-value store.
 *
 * A request is simulated as: client -> wire -> NIC -> per-packet
 * network-stack processing -> hash -> store metadata walk (driven by
 * the *real* Store's probe trace) -> value streaming -> wire back.
 * CPU work executes as an operation trace on the core model through
 * the cache hierarchy into the configured memory device, so latency
 * sensitivity, L2 effects and flash behaviour all emerge from
 * mechanism.
 */

#ifndef MERCURY_SERVER_SERVER_MODEL_HH
#define MERCURY_SERVER_SERVER_MODEL_HH

#include <map>
#include <memory>
#include <string>

#include "cpu/core.hh"
#include "kvstore/store.hh"
#include "mem/dram.hh"
#include "mem/flash.hh"
#include "mem/region_router.hh"
#include "mem/simple_mem.hh"
#include "net/datapath.hh"
#include "net/network.hh"
#include "server/address_map.hh"
#include "server/calibration.hh"
#include "sim/contract.hh"
#include "sim/fault.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace mercury::server
{

/** What backs the stack's storage. */
enum class MemoryKind { StackedDram, Flash };

/** Static configuration of a server node model. */
struct ServerModelParams
{
    std::string name = "server";

    cpu::CoreParams core = cpu::cortexA7Params();
    bool withL2 = true;

    MemoryKind memory = MemoryKind::StackedDram;

    /** Closed-page DRAM latency (Fig. 5 sweeps 10-100 ns). */
    Tick dramArrayLatency = 10 * tickNs;

    /** Flash read latency (Fig. 6 sweeps 10-20 us). */
    Tick flashReadLatency = 10 * tickUs;
    /** Flash program latency (fixed at 200 us in the paper). */
    static constexpr Tick flashWriteLatency = 200 * tickUs;

    /** DRAM row-buffer policy (closed-page is the paper's
     * worst-case assumption; open-page is the ablation). */
    mem::PagePolicy dramPagePolicy = mem::PagePolicy::Closed;

    /** L2 capacity override; 0 keeps the core type's default 2 MB. */
    std::uint64_t l2SizeBytes = 0;

    /** Flash page size override; 0 keeps 4 KiB. Setting 64 degrades
     * the model to the paper's flat per-line flash latency (no page
     * locality), used by the flash-model ablation. */
    unsigned flashPageBytes = 0;
    /** Flash capacity override; 0 keeps the 19.8 GB stack. */
    std::uint64_t flashCapacity = 0;

    net::NetParams net{};

    /** Datapath configuration: the GET path (kernel TCP, kernel UDP
     * or the poll-mode batched bypass) and the on-NIC GET cache. All
     * defaults off; the default reproduces the kernel TCP path
     * bit-for-bit. */
    net::DatapathParams datapath{};

    /** Unused: the store has one policy. Kept only because simbench
     * still assigns it (see kvstore::EvictionPolicyKind). */
    kvstore::EvictionPolicyKind eviction =
        kvstore::EvictionPolicyKind::StrictLru;
    /** Unused: the store takes no locks. Kept only because simbench
     * still assigns it (see kvstore::LockingMode). */
    kvstore::LockingMode locking = kvstore::LockingMode::Global;

    /** Memory budget of this core's store (one DRAM port slice by
     * default, Sec. 4.1.2). */
    std::uint64_t storeMemLimit = 224 * miB;

    /** The fitted trace-generator constants (calibration.hh); one
     * fixed set for every node. */
    static constexpr Calibration cal{};

    std::uint64_t seed = 1;

    /**
     * Parent group for this node's statistics tree. The model and
     * every device it owns register under it (bench harnesses pass
     * their Registry root so --stats-json sees the whole node);
     * nullptr keeps the groups as detached roots, exactly as before
     * observability existed.
     */
    stats::StatGroup *statsParent = nullptr;

    /** Request-lifecycle tracer; nullptr (the default) records
     * nothing and costs nothing. */
    trace::Tracer *tracer = nullptr;

    /**
     * Memo of the in-order core's code passes (mem::FetchMemo), for
     * nodes that run the same code at the same addresses to share;
     * nullptr (the default) gives the node a memo of its own. A
     * shared memo must outlive the node, and every node sharing it
     * must run on one thread.
     */
    mem::FetchMemo *fetchMemo = nullptr;

    /** Base of this core's slice in the stack's address space; used
     * when several cores share one stack's devices (multi-core
     * stack simulation). */
    Addr sliceBase = 0;
};

/** Stacked-DRAM device parameters of a node configured by
 * @p params, named @p name. */
mem::DramParams dramParamsFor(const ServerModelParams &params,
                              std::string name);

/** Flash controller parameters of a node configured by @p params,
 * named @p name. */
mem::FlashParams flashParamsFor(const ServerModelParams &params,
                                std::string name);

/**
 * Devices shared by all cores of one stack. When passed to a
 * ServerModel, the model uses these instead of creating private
 * ones, so port/channel/link contention between cores emerges.
 */
struct SharedStackDevices
{
    mem::DramModel *dram = nullptr;
    mem::FlashController *flash = nullptr;
    net::NetworkPath *clientToServer = nullptr;
    net::NetworkPath *serverToClient = nullptr;
};

/** Where a request's time went. */
struct RttBreakdown
{
    Tick wire = 0;       ///< serialization + propagation, both ways
    Tick netstack = 0;   ///< kernel/driver CPU time + data copies
    Tick hash = 0;       ///< key hash computation
    Tick memcached = 0;  ///< metadata walk & bookkeeping
    Tick nicCache = 0;   ///< on-NIC GET cache lookup/answer time

    Tick
    total() const
    {
        return wire + netstack + hash + memcached + nicCache;
    }

  private:
    double
    fractionOf(Tick part) const
    {
        return total() ? static_cast<double>(part) /
                             static_cast<double>(total())
                       : 0.0;
    }

  public:
    /** CPU time in the network stack only -- wire time is reported
     * separately by wireFraction() since the datapath PR split the
     * two (they respond to different optimizations). */
    double
    netstackFraction() const
    {
        return fractionOf(netstack);
    }

    /** Serialization + propagation share, both directions. */
    double
    wireFraction() const
    {
        return fractionOf(wire);
    }

    /** On-NIC cache share (zero unless the cache is enabled). */
    double
    nicCacheFraction() const
    {
        return fractionOf(nicCache);
    }

    /** Whole network share (wire + stack + NIC cache), the quantity
     * Fig. 4 plots as "network stack". */
    double
    networkFraction() const
    {
        return fractionOf(wire + netstack + nicCache);
    }

    double
    hashFraction() const
    {
        return fractionOf(hash);
    }

    double
    memcachedFraction() const
    {
        return fractionOf(memcached);
    }
};

/** Timing of one request. */
struct RequestTiming
{
    Tick rtt = 0;
    RttBreakdown breakdown;
    bool hit = false;
};

/** Aggregate over a measurement run. */
struct Measurement
{
    double avgTps = 0.0;
    double avgRttUs = 0.0;
    RttBreakdown avgBreakdown;  ///< in ticks, averaged
    double p99RttUs = 0.0;
    /** Fraction of requests under 1 ms (the paper's SLA claim). */
    double subMsFraction = 0.0;
    /** Payload goodput, bytes per second. */
    double goodput = 0.0;
};

class ServerModel
{
  public:
    /**
     * @param params configuration for this core's view of the node
     * @param shared devices shared with sibling cores on the same
     *        stack; nullptr creates private devices (single-core
     *        stack, the paper's measurement setup)
     */
    explicit ServerModel(const ServerModelParams &params,
                         const SharedStackDevices *shared = nullptr);

    /**
     * Pre-load @p num_keys values of @p value_bytes under a distinct
     * per-size namespace, bypassing the timing path (the devices are
     * warmed functionally: flash pages get mapped, caches stay cold).
     *
     * @return number of keys actually resident (eviction may cap it).
     */
    unsigned populate(unsigned num_keys, std::uint32_t value_bytes);

    /** Key of the @p index-th value in populate()'s per-size
     * namespace: "v<value_bytes>:<index>". Load generators draw
     * their keys from the same namespace. */
    static std::string keyFor(std::uint32_t value_bytes,
                              std::uint64_t index);

    /** One timed GET for a previously populated key. */
    RequestTiming get(const std::string &key);

    /** One timed PUT. */
    RequestTiming put(const std::string &key,
                      std::uint32_t value_bytes);

    /**
     * Closed-loop measurement: populate a working set for
     * @p value_bytes, run warmup + samples requests of the given
     * kind over random keys, and aggregate.
     */
    Measurement measureGets(std::uint32_t value_bytes,
                            unsigned samples = 12,
                            unsigned warmup = 4);
    Measurement measurePuts(std::uint32_t value_bytes,
                            unsigned samples = 12,
                            unsigned warmup = 4);

    kvstore::Store &store() { return *store_; }
    const ServerModelParams &params() const { return params_; }
    Tick now() const { return cursor_; }

    /** Idle the node until @p tick (no-op if already past it);
     * used by open-loop load generators. */
    void
    advanceTo(Tick tick)
    {
        if (tick > cursor_) {
            cursor_ = tick;
            contract::noteTick(cursor_);
        }
    }

    mem::CacheHierarchy &caches() { return *caches_; }

    /**
     * This node's statistics tree: lifetime counters (gets, puts,
     * hits, bytes) plus the "window" subgroup of per-stage latency
     * histograms that measure*() resets at each warmup boundary, so
     * post-measurement the window holds exactly the sampled
     * requests. Fig. 4's breakdown is a query over this group.
     */
    const stats::StatGroup &stats() const { return stats_; }

    /**
     * Attach @p injector to this node's fault-capable devices: both
     * network directions and, when present, the flash controller.
     * nullptr detaches. Fault probabilities come from the device
     * params; with none set, attaching changes nothing.
     */
    void setFaultInjector(fault::FaultInjector *injector);

    /** Retune the per-segment loss probability on both network
     * directions (scheduled loss-burst scenarios). Only consulted
     * while an injector is attached. */
    void setPacketLoss(double probability);

    /** Retune the flash program-fail probability (scheduled wear
     * bursts); no-op on DRAM-backed nodes. A node's flash erases
     * never fail. */
    void setFlashWear(double program_fail_probability);

    /** Packets dropped across both network directions. */
    std::uint64_t netDrops() const;

    /** Segments retransmitted across both network directions. */
    std::uint64_t netRetransmits() const;

    /** Hits/misses/fills of the on-NIC GET cache; nullptr while the
     * cache is disabled. */
    const net::NicGetCache *nicCache() const { return nicCache_.get(); }

  private:
    /** Cycle accounting per request, split rx / proto / tx plus the
     * NIC-cache time (which bypasses the CPU entirely). */
    struct PhaseTimes
    {
        Tick rx = 0;        ///< receive-side stack + inbound copies
        Tick tx = 0;        ///< transmit-side stack + outbound copies
        Tick hash = 0;
        Tick memcached = 0;
        Tick nicCache = 0;

        Tick netstack() const { return rx + tx; }
    };

    /**
     * The request walk behind get() and put(): wire in, on-NIC cache
     * (GETs), transport, hash, store walk, value copy, flash
     * persistence (PUTs on flash), transport, wire out.
     * @p put_bytes is the PUT's value size; ignored for a GET.
     */
    RequestTiming serve(const std::string &key, bool is_put,
                        std::uint32_t put_bytes);

    /** Run @p trace as one phase and clear it, returning elapsed
     * time. */
    Tick runPhase(cpu::OpTrace &trace);

    /** Record one finished request into the window histograms. */
    void recordRequest(const RequestTiming &timing, Tick rx, Tick tx);

    /** CPU-side transport phase of @p path, receive side (reading
     * @p payload_bytes out of the buffer ring) or transmit side. */
    void buildTransportPhase(cpu::OpTrace &trace, net::DatapathKind path,
                             bool rx, unsigned packets,
                             std::uint64_t payload_bytes);

    /** Write the item @p probe operated on (@p item_bytes) and its
     * bucket line to flash from @p at; returns when the last write
     * is accepted. */
    Tick persistItem(const kvstore::ProbeTrace &probe,
                     std::uint64_t item_bytes, Tick at);

    /** Random line in the kernel socket-state region. */
    Addr randomSockLine();

    /** The flash channel serving this core's slice. */
    unsigned ourChannel() const;

    /** Where a mutable-metadata store for @p line actually lands
     * (DRAM in place; SRAM working area on Iridium). */
    Addr mutableMetaAddr(Addr line);
    void buildHashPhase(cpu::OpTrace &trace,
                        std::size_t key_len) const;
    void buildLookupPhase(cpu::OpTrace &trace,
                          const kvstore::ProbeTrace &probe,
                          bool is_put);
    /** Stream the value between the store and the buffer ring. */
    void buildValueCopy(cpu::OpTrace &trace, Addr value_addr,
                        std::uint64_t bytes, bool to_store);

    Measurement measure(bool puts, std::uint32_t value_bytes,
                        unsigned samples, unsigned warmup);

    /** Namespace bookkeeping for populated working sets. */
    unsigned populatedKeys(std::uint32_t value_bytes) const;

    ServerModelParams params_;
    AddressMap map_;

    // Statistics. Declared before the devices/store so child groups
    // registered under stats_ (or params_.statsParent) are destroyed
    // before their parent.
    stats::StatGroup stats_;
    stats::Counter gets_;
    stats::Counter puts_;
    stats::Counter getHits_;
    stats::Counter getMisses_;
    stats::Counter bytesIn_;
    stats::Counter bytesOut_;
    stats::Formula hitRate_;
    stats::StatGroup window_;
    stats::LatencyHistogram rttHist_;
    stats::LatencyHistogram wireHist_;
    stats::LatencyHistogram netstackHist_;
    stats::LatencyHistogram netstackRxHist_;
    stats::LatencyHistogram netstackTxHist_;
    stats::LatencyHistogram nicCacheHist_;
    stats::LatencyHistogram hashHist_;
    stats::LatencyHistogram memcachedHist_;

    trace::Tracer *tracer_ = nullptr;

    /** On-NIC GET cache; null while disabled. */
    std::unique_ptr<net::NicGetCache> nicCache_;

    // Owned devices (empty when shared devices are injected).
    std::unique_ptr<mem::DramModel> ownedDram_;
    std::unique_ptr<mem::FlashController> ownedFlash_;
    std::unique_ptr<net::NetworkPath> ownedC2s_;
    std::unique_ptr<net::NetworkPath> ownedS2c_;

    // Per-core devices.
    std::unique_ptr<mem::SimpleMemory> sram_;
    std::unique_ptr<mem::RegionRouter> router_;

    // Working pointers (owned or shared).
    mem::DramModel *dram_ = nullptr;
    mem::FlashController *flash_ = nullptr;
    net::NetworkPath *c2s_ = nullptr;
    net::NetworkPath *s2c_ = nullptr;
    mem::MemDevice *memory_ = nullptr;

    /** The fetch memo, when params_.fetchMemo is nullptr. */
    mem::FetchMemo ownFetchMemo_;
    std::unique_ptr<mem::CacheHierarchy> caches_;
    std::unique_ptr<cpu::CoreModel> core_;

    std::unique_ptr<kvstore::Store> store_;

    Tick cursor_ = 0;
    std::uint64_t bufferCursor_ = 0;
    /** Previous hot item (stands in for the LRU list head
     * neighbours that a strict-LRU relink dirties). */
    Addr lastHotItem_ = 0;
    /** The phase serve() is building; runPhase empties it, and it
     * keeps its capacity across requests. */
    cpu::OpTrace trace_;
    /** The store walk of the request serve() is serving; reset per
     * request, keeping its vectors' capacity. */
    kvstore::ProbeTrace probe_;
    /** The value of the PUT serve() is serving. */
    std::string putValue_;

    Rng rng_;
    std::map<std::uint32_t, unsigned> populated_;
};

} // namespace mercury::server

#endif // MERCURY_SERVER_SERVER_MODEL_HH
