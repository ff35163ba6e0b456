#include "server/address_map.hh"

#include "sim/contract.hh"

namespace mercury::server
{

AddressMap::AddressMap(Addr base, std::uint64_t data_size)
    : base_(base), dataSize_(data_size)
{
    MERCURY_EXPECTS(data_size > 0, "data region must be non-empty");
    // The layout is a sum of region sizes from base_; make sure the
    // 64-bit address arithmetic cannot wrap inside the slice.
    MERCURY_ENSURES(end() > base_,
                    "address map overflows the 64-bit address space: "
                    "base=", base_, " dataSize=", dataSize_);
    MERCURY_ASSERT_SLOW(checkLayout(),
                        "address map regions overlap or leave gaps");
}

bool
AddressMap::checkLayout() const
{
    // Regions must tile the slice contiguously and disjointly, in
    // layout order, and the derived region views must agree with the
    // raw offsets.
    const mem::AddressRegion regions[] = {
        codeRegion(),
        {bufferBase(), bufferSize()},
        {scratchBase(), scratchSize()},
        {tableBase(), tableSize()},
        {sockBase(), sockSize()},
        {dataBase(), dataSize_},
    };
    Addr cursor = base_;
    for (const auto &region : regions) {
        if (region.base != cursor)
            return false;
        if (region.size == 0)
            return false;
        if (region.base + region.size < region.base)
            return false;  // wrapped
        cursor = region.base + region.size;
    }
    if (cursor != end())
        return false;

    // The composite views must stay inside the slice and mirror the
    // primitive regions they claim to cover.
    if (hotRegion().base != base_ ||
        hotRegion().size != codeSize() + bufferSize() + scratchSize())
        return false;
    if (sramRegion().base != bufferBase() ||
        sramRegion().size != bufferSize() + scratchSize())
        return false;
    return coldRegion().base == tableBase() &&
           coldRegion().size == tableSize() + sockSize() + dataSize_;
}

mem::AddressRegion
AddressMap::hotRegion() const
{
    return {base_, codeSize() + bufferSize() + scratchSize()};
}

mem::AddressRegion
AddressMap::codeRegion() const
{
    return {base_, codeSize()};
}

mem::AddressRegion
AddressMap::sramRegion() const
{
    return {bufferBase(), bufferSize() + scratchSize()};
}

mem::AddressRegion
AddressMap::coldRegion() const
{
    return {tableBase(), tableSize() + sockSize() + dataSize_};
}

Addr
AddressMap::mapDataPointer(const kvstore::SlabAllocator &slabs,
                           const void *ptr) const
{
    const std::int64_t page = slabs.pageIndexOf(ptr);
    MERCURY_EXPECTS(page >= 0, "pointer is not a slab chunk");
    const std::uint64_t offset = slabs.pageOffsetOf(ptr);
    const Addr addr = dataBase() +
                      static_cast<std::uint64_t>(page) *
                          slabs.params().pageSize +
                      offset;
    MERCURY_ENSURES(addr >= dataBase() && addr < end(),
                    "slab page maps outside the data region: addr=",
                    addr);
    return addr;
}

Addr
AddressMap::mapBucketIndex(std::uint64_t index) const
{
    // Bucket slots are 8-byte entries; fold the slot's index into
    // the table region so a given bucket always lands on the same
    // simulated line. The index (unlike the host pointer of the
    // slot, which moves with the heap layout) makes the mapping
    // reproducible across runs and builds.
    const std::uint64_t slot = index % (tableSize() / 8);
    const Addr addr = tableBase() + slot * 8;
    MERCURY_ENSURES(addr >= tableBase() &&
                    addr < tableBase() + tableSize(),
                    "bucket maps outside the table region");
    return addr;
}

Addr
AddressMap::bufferAddr(std::uint64_t off) const
{
    return bufferBase() + off % bufferSize();
}

} // namespace mercury::server
