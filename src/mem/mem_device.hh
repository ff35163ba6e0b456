/**
 * @file
 * Abstract interface for timed memory devices.
 *
 * Devices are modelled in the busy-until style: an access issued at an
 * absolute tick returns the absolute tick at which it completes,
 * internally accounting for queuing on ports, banks or channels. This
 * keeps single-request timing walks cheap while still letting
 * contention emerge when several cores share a device.
 */

#ifndef MERCURY_MEM_MEM_DEVICE_HH
#define MERCURY_MEM_MEM_DEVICE_HH

#include <cstdint>

#include "sim/types.hh"

namespace mercury::mem
{

/** Kind of memory access, as seen by a memory device. */
enum class AccessType { Read, Write };

/**
 * A timed memory device (DRAM stack, DDR DIMM, flash controller...).
 */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    /**
     * Perform a timed access.
     *
     * @param type read or write
     * @param addr simulated physical address
     * @param size access size in bytes (usually one cache line)
     * @param now absolute tick the access is issued
     * @return absolute tick at which the access completes (>= now)
     */
    virtual Tick access(AccessType type, Addr addr, unsigned size,
                        Tick now) = 0;
};

} // namespace mercury::mem

#endif // MERCURY_MEM_MEM_DEVICE_HH
