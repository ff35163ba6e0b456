#include "mem/dram.hh"

#include <algorithm>
#include <bit>

#include "sim/contract.hh"

namespace mercury::mem
{

DramModel::DramModel(const DramParams &params, stats::StatGroup *parent)
    : params_(params),
      statGroup_(params.name, parent),
      readCount_(&statGroup_, "reads", "read accesses"),
      writeCount_(&statGroup_, "writes", "write accesses"),
      bytesRead_(&statGroup_, "bytesRead", "bytes read"),
      bytesWritten_(&statGroup_, "bytesWritten", "bytes written"),
      rowHits_(&statGroup_, "rowHits", "open-row hits"),
      rowMisses_(&statGroup_, "rowMisses", "row activations"),
      portQueueTicks_(&statGroup_, "portQueueTicks",
                      "ticks spent queued behind busy ports/banks"),
      refreshStallTicks_(&statGroup_, "refreshStallTicks",
                         "ticks stalled behind refresh windows")
{
    MERCURY_EXPECTS(std::has_single_bit(params_.capacity) &&
                    std::has_single_bit(params_.numPorts) &&
                    std::has_single_bit(params_.banksPerPort) &&
                    std::has_single_bit(params_.rowBytes),
                    "DRAM capacity, ports, banks per port and row size "
                    "must be powers of two");
    MERCURY_EXPECTS(params_.capacity >= params_.numPorts,
                    "capacity must divide evenly across ports");
    // One delay must clear a blackout: access() takes the time
    // modulo tREFI and waits out at most one tRFC.
    MERCURY_EXPECTS(!params_.modelRefresh ||
                        (params_.refreshInterval > 0 &&
                         params_.refreshDuration < params_.refreshInterval),
                    "DRAM refresh needs tRFC < tREFI, got tRFC ",
                    params_.refreshDuration, " tREFI ",
                    params_.refreshInterval);

    const std::uint64_t port_size = params_.capacity / params_.numPorts;
    const std::uint64_t bank_size = port_size / params_.banksPerPort;
    MERCURY_EXPECTS(bank_size >= params_.rowBytes,
                    "bank smaller than one row");
    portShift_ = static_cast<unsigned>(std::countr_zero(port_size));
    bankShift_ = static_cast<unsigned>(std::countr_zero(bank_size));
    rowShift_ = static_cast<unsigned>(
        std::countr_zero(params_.rowBytes));
    lineTransfer_ = transferTime(64);

    ports_.resize(params_.numPorts);
    for (auto &port : ports_)
        port.banks.resize(params_.banksPerPort);
}

unsigned
DramModel::portIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> portShift_) &
                                 (params_.numPorts - 1));
}

unsigned
DramModel::bankIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> bankShift_) &
                                 (params_.banksPerPort - 1));
}

std::int64_t
DramModel::rowIndex(Addr addr) const
{
    return static_cast<std::int64_t>(addr >> rowShift_);
}

Tick
DramModel::transferTime(unsigned size) const
{
    const double seconds =
        static_cast<double>(size) / params_.portBandwidth;
    return std::max<Tick>(1, secondsToTicks(seconds));
}

Tick
DramModel::access(AccessType type, Addr addr, unsigned size, Tick now)
{
    MERCURY_EXPECTS(size > 0, "zero-size DRAM access");
    addr &= params_.capacity - 1;

    Port &port = ports_[portIndex(addr)];
    Bank &bank = port.banks[bankIndex(addr)];

    // Bank-level parallelism: an access only waits for its own bank;
    // the shared port pins are occupied just for the data transfer.
    Tick start = std::max(now, bank.busyUntil);

    if (params_.modelRefresh) {
        // All-bank refresh blackout windows at every tREFI.
        const Tick within = start % params_.refreshInterval;
        if (within < params_.refreshDuration) {
            const Tick delay = params_.refreshDuration - within;
            start += delay;
            refreshStallTicks_ += static_cast<double>(delay);
        }
    }

    Tick array_latency;
    const std::int64_t row = rowIndex(addr);
    if (params_.pagePolicy == PagePolicy::Open && bank.openRow == row) {
        array_latency = params_.rowHitLatency;
        ++rowHits_;
    } else {
        array_latency = params_.arrayLatency;
        ++rowMisses_;
        bank.openRow = params_.pagePolicy == PagePolicy::Open ? row : -1;
    }

    const Tick transfer = size == 64 ? lineTransfer_ : transferTime(size);
    const Tick transfer_start =
        std::max(start + array_latency, port.busyUntil);
    const Tick done = transfer_start + transfer;
    portQueueTicks_ += static_cast<double>(transfer_start - now);

    bank.busyUntil = done;
    port.busyUntil = done;

    if (type == AccessType::Read) {
        ++readCount_;
        bytesRead_ += static_cast<double>(size);
    } else {
        ++writeCount_;
        bytesWritten_ += static_cast<double>(size);
    }

    return done;
}

void
DramModel::noteSerialLineReads(Addr addr, std::uint64_t n, Tick done)
{
    MERCURY_ASSERT(fixedLatencyReads(),
                   "serial reads noted on a DRAM with variable latency");
    addr &= params_.capacity - 1;
    Port &port = ports_[portIndex(addr)];
    Bank &bank = port.banks[bankIndex(addr)];
    bank.busyUntil = done;
    bank.openRow = -1;
    port.busyUntil = done;
    readCount_ += static_cast<double>(n);
    rowMisses_ += static_cast<double>(n);
    bytesRead_ += static_cast<double>(n * 64);
    portQueueTicks_ += static_cast<double>(n * params_.arrayLatency);
}

double
DramModel::peakBandwidth() const
{
    return params_.portBandwidth * params_.numPorts;
}

DramParams
stackedDramParams()
{
    DramParams p;
    p.name = "stackedDram";
    p.numPorts = 16;
    p.banksPerPort = 8;
    p.capacity = 4 * giB;
    p.rowBytes = 1024;
    p.arrayLatency = 11 * tickNs;
    p.rowHitLatency = 4 * tickNs;
    p.portBandwidth = 6.25e9;
    p.pagePolicy = PagePolicy::Closed;
    return p;
}

DramParams
ddr3Params()
{
    DramParams p;
    p.name = "ddr3";
    p.numPorts = 1;
    p.banksPerPort = 8;
    p.capacity = 2 * giB;
    p.rowBytes = 8192;
    p.arrayLatency = 50 * tickNs;
    p.rowHitLatency = 15 * tickNs;
    p.portBandwidth = 10.7e9;
    p.pagePolicy = PagePolicy::Open;
    return p;
}

DramParams
ddr4Params()
{
    DramParams p = ddr3Params();
    p.name = "ddr4";
    p.arrayLatency = 46 * tickNs;
    p.rowHitLatency = 14 * tickNs;
    p.portBandwidth = 21.3e9;
    return p;
}

DramParams
lpddr3Params()
{
    DramParams p;
    p.name = "lpddr3";
    p.numPorts = 1;
    p.banksPerPort = 8;
    p.capacity = 512 * miB;
    p.rowBytes = 4096;
    p.arrayLatency = 60 * tickNs;
    p.rowHitLatency = 18 * tickNs;
    p.portBandwidth = 6.4e9;
    p.pagePolicy = PagePolicy::Open;
    return p;
}

DramParams
hmc1Params()
{
    DramParams p;
    p.name = "hmc1";
    p.numPorts = 16;
    p.banksPerPort = 16;
    p.capacity = 512 * miB;
    p.rowBytes = 256;
    p.arrayLatency = 15 * tickNs;
    p.rowHitLatency = 6 * tickNs;
    p.portBandwidth = 8.0e9;
    p.pagePolicy = PagePolicy::Closed;
    return p;
}

DramParams
wideIoParams()
{
    DramParams p;
    p.name = "wideIo";
    p.numPorts = 4;
    p.banksPerPort = 4;
    p.capacity = 512 * miB;
    p.rowBytes = 2048;
    p.arrayLatency = 25 * tickNs;
    p.rowHitLatency = 10 * tickNs;
    p.portBandwidth = 3.2e9;
    p.pagePolicy = PagePolicy::Closed;
    return p;
}

DramParams
octopusParams()
{
    DramParams p;
    p.name = "octopus";
    p.numPorts = 8;
    p.banksPerPort = 8;
    p.capacity = 512 * miB;
    p.rowBytes = 1024;
    p.arrayLatency = 12 * tickNs;
    p.rowHitLatency = 5 * tickNs;
    p.portBandwidth = 6.25e9;
    p.pagePolicy = PagePolicy::Closed;
    return p;
}

} // namespace mercury::mem
