#include "mem/simple_mem.hh"

#include <algorithm>

#include "sim/contract.hh"

namespace mercury::mem
{

SimpleMemory::SimpleMemory(const SimpleMemParams &params)
    : params_(params)
{
    static_assert(SimpleMemParams::bandwidth > 0.0,
                  "SRAM bandwidth must be positive");
}

Tick
SimpleMemory::access(AccessType, Addr, unsigned size, Tick now)
{
    MERCURY_EXPECTS(size > 0, "zero-size SRAM access");
    const Tick start = std::max(now, busyUntil_);
    const Tick transfer = std::max<Tick>(
        1, secondsToTicks(static_cast<double>(size) /
                          params_.bandwidth));
    const Tick done = start + params_.latency + transfer;
    // Pipelined: the array is only busy for the transfer slot.
    busyUntil_ = start + transfer;
    return done;
}

} // namespace mercury::mem
