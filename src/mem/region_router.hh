/**
 * @file
 * A MemDevice that routes accesses to backing devices by address
 * region.
 *
 * The Iridium stack has no DRAM: key-value data and code live in
 * flash while packet buffers and scratch state live in on-stack NIC
 * SRAM. The router lets one cache hierarchy sit in front of that
 * split physical address space.
 */

#ifndef MERCURY_MEM_REGION_ROUTER_HH
#define MERCURY_MEM_REGION_ROUTER_HH

#include <string>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/types.hh"

namespace mercury::mem
{

/** A half-open address range. */
struct AddressRegion
{
    Addr base = 0;
    std::uint64_t size = 0;

    bool
    contains(Addr addr) const
    {
        return addr >= base && addr - base < size;
    }

    Addr end() const { return base + size; }
};

class RegionRouter : public MemDevice
{
  public:
    explicit RegionRouter(std::string name);

    /**
     * Map a region onto a device. An access at `addr` reaches the
     * device at `addr - region.base + device_offset`, so several
     * disjoint regions can share one device without aliasing.
     * Regions must not overlap.
     */
    void addRegion(const AddressRegion &region, MemDevice *device,
                   std::uint64_t device_offset = 0);

    Tick access(AccessType type, Addr addr, unsigned size,
                Tick now) override;

  private:
    struct Entry
    {
        AddressRegion region;
        MemDevice *device;
        std::uint64_t deviceOffset;
    };

    std::string name_;
    std::vector<Entry> entries_;
};

} // namespace mercury::mem

#endif // MERCURY_MEM_REGION_ROUTER_HH
