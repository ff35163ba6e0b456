#include "mem/region_router.hh"

#include <utility>

#include "sim/contract.hh"

namespace mercury::mem
{

RegionRouter::RegionRouter(std::string name)
    : name_(std::move(name))
{}

void
RegionRouter::addRegion(const AddressRegion &region, MemDevice *device,
                        std::uint64_t device_offset)
{
    MERCURY_EXPECTS(device != nullptr, "router region needs a device");
    MERCURY_EXPECTS(region.size > 0, "router region must be non-empty");
    for (const Entry &entry : entries_) {
        const bool disjoint = region.end() <= entry.region.base ||
                              entry.region.end() <= region.base;
        MERCURY_EXPECTS(disjoint, "router regions must not overlap");
    }
    entries_.push_back({region, device, device_offset});
}

Tick
RegionRouter::access(AccessType type, Addr addr, unsigned size,
                     Tick now)
{
    for (Entry &entry : entries_) {
        if (entry.region.contains(addr)) {
            return entry.device->access(
                type, addr - entry.region.base + entry.deviceOffset,
                size, now);
        }
    }
    MERCURY_UNREACHABLE("access to unmapped address ", addr, " on ", name_);
}

} // namespace mercury::mem
