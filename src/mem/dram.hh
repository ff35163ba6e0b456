/**
 * @file
 * Parametric DRAM timing model.
 *
 * One model covers both the Tezzaron-style 3D-stacked DRAM used in
 * Mercury (16 independent 128-bit ports, 8 banks each, closed-page
 * access in 11 cycles at 1 GHz, 6.25 GB/s per port) and conventional
 * DIMM parts (DDR3/DDR4/LPDDR3) used by the baseline server, via the
 * preset factories at the bottom of this header. The paper's Table 2
 * catalog is expressed directly as these presets.
 */

#ifndef MERCURY_MEM_DRAM_HH
#define MERCURY_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mercury::mem
{

/** Row-buffer management policy. */
enum class PagePolicy
{
    /** Precharge after every access; every access pays full array
     * latency. The paper's worst-case assumption (Sec. 5.2). */
    Closed,
    /** Leave rows open; row hits pay only column access time. */
    Open,
};

/** Static configuration of a DramModel. */
struct DramParams
{
    std::string name = "dram";

    /** Independent ports/channels; each serves a contiguous slice of
     * the address space. */
    unsigned numPorts = 16;

    /** Banks behind each port. */
    unsigned banksPerPort = 8;

    /** Total device capacity. */
    std::uint64_t capacity = 4 * giB;

    /** DRAM row (page) size per bank; 8 kb rows = 1 KiB. */
    unsigned rowBytes = 1024;

    /** Closed-page array access latency (activate+read+precharge). */
    Tick arrayLatency = 11 * tickNs;

    /** Column access latency for an open-row hit. */
    Tick rowHitLatency = 4 * tickNs;

    /** Peak transfer bandwidth per port, bytes per second. */
    double portBandwidth = 6.25e9;

    PagePolicy pagePolicy = PagePolicy::Closed;

    /** Model all-bank refresh: every refreshInterval (tREFI) the
     * device is unavailable for refreshDuration (tRFC). Off by
     * default to match the paper's memory model. */
    bool modelRefresh = false;
    Tick refreshInterval = 7800 * tickNs;
    Tick refreshDuration = 350 * tickNs;
};

/**
 * Busy-until DRAM timing model with per-bank state and per-port
 * transfer occupancy.
 *
 * Capacity, port count, banks per port and row size must be powers
 * of two, so the port, bank and row of an address are shifts and
 * masks.
 */
class DramModel : public MemDevice
{
  public:
    explicit DramModel(const DramParams &params,
                       stats::StatGroup *parent = nullptr);

    Tick access(AccessType type, Addr addr, unsigned size,
                Tick now) override;

    /** Total addressable capacity of the device in bytes. */
    std::uint64_t capacityBytes() const
    {
        return params_.capacity;
    }

    const DramParams &params() const { return params_; }

    /** Latency of a 64-byte read that waits for neither its bank nor
     * its port. */
    Tick lineReadLatency() const
    {
        return params_.arrayLatency + lineTransfer_;
    }

    /**
     * True when every read pays the full array latency and nothing
     * but earlier accesses delays it: closed page, refresh off. Then
     * a 64-byte read issued when its bank and port are free costs
     * exactly lineReadLatency().
     */
    bool
    fixedLatencyReads() const
    {
        return params_.pagePolicy == PagePolicy::Closed &&
               !params_.modelRefresh;
    }

    /** True when every address in [@p first, @p last] maps to one
     * bank of one port. */
    bool
    oneBank(Addr first, Addr last) const
    {
        return (first >> bankShift_) == (last >> bankShift_);
    }

    /** True when a read of @p addr issued at @p now would wait for
     * neither its bank nor its port's transfer (closed page, refresh
     * off). */
    bool
    idleFor(Addr addr, Tick now) const
    {
        addr &= params_.capacity - 1;
        const Port &port = ports_[portIndex(addr)];
        return port.banks[bankIndex(addr)].busyUntil <= now &&
               port.busyUntil <= now + params_.arrayLatency;
    }

    /**
     * Account @p n 64-byte reads of the bank of @p addr, each issued
     * no earlier than the one before it completed, the first into an
     * idle bank and port (idleFor), the last completing at @p done:
     * exactly what @p n access() calls would leave behind on a
     * fixedLatencyReads() device. The counters are integer-valued
     * doubles far below 2^53, so one addition of n each is exact.
     */
    void noteSerialLineReads(Addr addr, std::uint64_t n, Tick done);

    /** Peak bandwidth across all ports, bytes/second. */
    double peakBandwidth() const;

    /** Per-request statistics. */
    const stats::StatGroup &statGroup() const { return statGroup_; }

  private:
    struct Bank
    {
        Tick busyUntil = 0;
        std::int64_t openRow = -1;
    };

    struct Port
    {
        Tick busyUntil = 0;
        std::vector<Bank> banks;
    };

    unsigned portIndex(Addr addr) const;
    unsigned bankIndex(Addr addr) const;
    std::int64_t rowIndex(Addr addr) const;
    Tick transferTime(unsigned size) const;

    DramParams params_;
    unsigned portShift_;
    unsigned bankShift_;
    unsigned rowShift_;
    /** transferTime(64): the size of nearly every access. */
    Tick lineTransfer_;
    std::vector<Port> ports_;

    stats::StatGroup statGroup_;
    stats::Scalar readCount_;
    stats::Scalar writeCount_;
    stats::Scalar bytesRead_;
    stats::Scalar bytesWritten_;
    stats::Scalar rowHits_;
    stats::Scalar rowMisses_;
    stats::Scalar portQueueTicks_;
    stats::Scalar refreshStallTicks_;
};

/** Tezzaron-style 3D-stacked DRAM, 4 GB (paper Sec. 4.1.1). */
DramParams stackedDramParams();

/** DDR3-1333 DIMM: 10.7 GB/s, 2 GB per DIMM (paper Table 2). */
DramParams ddr3Params();

/** DDR4-2667 DIMM: 21.3 GB/s, 2 GB (paper Table 2). */
DramParams ddr4Params();

/** LPDDR3: 6.4 GB/s, 512 MB (paper Table 2). */
DramParams lpddr3Params();

/** HMC-I 3D stack: 128 GB/s, 512 MB (paper Table 2). */
DramParams hmc1Params();

/** Wide I/O 3D stack: 12.8 GB/s, 512 MB (paper Table 2). */
DramParams wideIoParams();

/** Tezzaron Octopus 3D stack: 50 GB/s, 512 MB (paper Table 2). */
DramParams octopusParams();

} // namespace mercury::mem

#endif // MERCURY_MEM_DRAM_HH
