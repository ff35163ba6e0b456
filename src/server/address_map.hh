/**
 * @file
 * Simulated address-space layout for one server core, and mapping of
 * host pointers (from the functional store) into it.
 */

#ifndef MERCURY_SERVER_ADDRESS_MAP_HH
#define MERCURY_SERVER_ADDRESS_MAP_HH

#include "kvstore/slab.hh"
#include "mem/region_router.hh"
#include "sim/types.hh"

namespace mercury::server
{

/**
 * Per-core address layout.
 *
 * Layout (offsets within the core's slice of the device space):
 *   [0, codeSize)                     code (netstack | memcached | hash)
 *   [codeSize, +bufferSize)           packet/socket buffers (ring)
 *   [.., +scratchSize)                stack & scratch
 *   [dataBase, +dataSize)             key-value slab pages
 *
 * The functional store hands back host pointers; mapDataPointer
 * translates them via the slab allocator's page table so that two
 * accesses to the same item hit the same simulated cache line and a
 * value streams contiguously.
 */
class AddressMap
{
  public:
    /**
     * @param base start of this core's slice in device space
     * @param data_size bytes reserved for key-value data
     */
    AddressMap(Addr base, std::uint64_t data_size);

    // Code sub-regions.
    Addr netstackCode() const { return base_; }
    std::uint64_t netstackCodeSize() const { return 96 * kiB; }

    Addr memcachedCode() const { return base_ + 96 * kiB; }
    std::uint64_t memcachedCodeSize() const { return 32 * kiB; }

    Addr hashCode() const { return base_ + 128 * kiB; }
    std::uint64_t hashCodeSize() const { return 4 * kiB; }

    std::uint64_t codeSize() const { return 132 * kiB; }

    /** Packet/socket buffer ring. */
    Addr bufferBase() const { return base_ + 132 * kiB; }
    std::uint64_t bufferSize() const { return 192 * kiB; }

    /** Stack and scratch state. */
    Addr scratchBase() const { return bufferBase() + bufferSize(); }
    std::uint64_t scratchSize() const { return 64 * kiB; }

    /** Hash-table bucket array region. */
    Addr tableBase() const { return scratchBase() + scratchSize(); }
    std::uint64_t tableSize() const { return 16 * miB; }

    /** Kernel socket state (TCBs, sk_buff metadata, epoll): lives in
     * main memory, so on Iridium it is flash-resident like
     * everything else the OS allocates. */
    Addr sockBase() const { return tableBase() + tableSize(); }
    std::uint64_t sockSize() const { return 8 * miB; }

    /** Key-value slab data. */
    Addr dataBase() const { return sockBase() + sockSize(); }
    std::uint64_t dataSize() const { return dataSize_; }

    Addr end() const { return dataBase() + dataSize_; }

    /** Region covering code + buffers + scratch (SRAM-backed on
     * Iridium). */
    mem::AddressRegion hotRegion() const;

    /** Just the code (stored in flash on Iridium, like the OS
     * image). */
    mem::AddressRegion codeRegion() const;

    /** Buffers + scratch (NIC SRAM on Iridium). */
    mem::AddressRegion sramRegion() const;

    /** Region covering table + data (flash-backed on Iridium). */
    mem::AddressRegion coldRegion() const;

    /** Map a slab chunk pointer into the data region. */
    Addr mapDataPointer(const kvstore::SlabAllocator &slabs,
                        const void *ptr) const;

    /** Map a hash-bucket slot index into the table region. */
    Addr mapBucketIndex(std::uint64_t index) const;

    /** A buffer-ring address for byte offset @p off (wraps). */
    Addr bufferAddr(std::uint64_t off) const;

    /**
     * Audit that the regions tile the slice contiguously with no
     * overlap and no wraparound. O(1); used by MERCURY_ASSERT_SLOW in
     * the constructor and by tests.
     */
    bool checkLayout() const;

  private:
    Addr base_;
    std::uint64_t dataSize_;
};

} // namespace mercury::server

#endif // MERCURY_SERVER_ADDRESS_MAP_HH
