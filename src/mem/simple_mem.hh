/**
 * @file
 * A simple fixed-latency, fixed-bandwidth memory device.
 *
 * Used for on-stack SRAM (NIC MAC buffers, scratch) where the
 * interesting behaviour is just "fast and always there".
 */

#ifndef MERCURY_MEM_SIMPLE_MEM_HH
#define MERCURY_MEM_SIMPLE_MEM_HH

#include <string>

#include "mem/mem_device.hh"
#include "sim/types.hh"

namespace mercury::mem
{

struct SimpleMemParams
{
    std::string name = "sram";
    static constexpr Tick latency = 8 * tickNs;
    /** Bytes per second. */
    static constexpr double bandwidth = 32e9;
};

class SimpleMemory : public MemDevice
{
  public:
    explicit SimpleMemory(const SimpleMemParams &params);

    const SimpleMemParams &params() const { return params_; }

    Tick access(AccessType type, Addr addr, unsigned size,
                Tick now) override;

  private:
    SimpleMemParams params_;
    Tick busyUntil_ = 0;
};

} // namespace mercury::mem

#endif // MERCURY_MEM_SIMPLE_MEM_HH
