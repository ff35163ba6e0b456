/**
 * @file
 * Memcached-style slab allocator.
 *
 * Memory is carved into fixed-size pages (1 MiB by default). Each
 * page is assigned, on demand, to a size class; classes grow
 * geometrically from the minimum chunk size. Once assigned, pages are
 * never reassigned (matching memcached 1.4), so a workload's size mix
 * determines the per-class capacity -- the mechanism behind
 * memcached's "calcification" behaviour and part of why density
 * planning matters for the paper's servers.
 */

#ifndef MERCURY_KVSTORE_SLAB_HH
#define MERCURY_KVSTORE_SLAB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/block_pool.hh"
#include "sim/types.hh"

namespace mercury::kvstore
{

/** Static configuration of the slab allocator. */
struct SlabParams
{
    /** Total memory budget for item storage. */
    std::uint64_t memLimit = 64 * miB;
    /** Slab page size. */
    std::uint32_t pageSize = 1 * miB;
    /** Smallest chunk size (fits the item header + small items). */
    std::uint32_t minChunk = 96;
    /** Geometric growth between adjacent classes. */
    double growthFactor = 1.25;
};

/**
 * The slab allocator. Not thread-safe by itself; the Store serializes
 * access per its locking mode.
 */
class SlabAllocator
{
  public:
    explicit SlabAllocator(const SlabParams &params);

    /** Smallest class whose chunks fit @p bytes, or -1 if the object
     * exceeds the largest class (one page). */
    int classFor(std::size_t bytes) const;

    /** Chunk size of a class. */
    std::uint32_t chunkSize(unsigned cls) const;

    unsigned numClasses() const
    {
        return static_cast<unsigned>(classes_.size());
    }

    /**
     * Allocate a chunk from a class.
     *
     * @return pointer to the chunk, or nullptr when the class free
     *         list is empty and the global page budget is exhausted
     *         (the caller should evict and retry).
     */
    void *allocate(unsigned cls);

    /** Return a chunk to its class free list. */
    void free(unsigned cls, void *chunk);

    /** Bytes of pages assigned so far (monotonic). */
    std::uint64_t allocatedBytes() const { return allocatedBytes_; }

    /** Bytes in chunks currently handed out. */
    std::uint64_t usedBytes() const { return usedBytes_; }

    std::uint64_t memLimit() const { return params_.memLimit; }

    /** Chunks currently handed out in a class. */
    std::uint64_t usedChunks(unsigned cls) const;

    /** True when another page could still be assigned. */
    bool
    canGrow() const
    {
        return allocatedBytes_ + params_.pageSize <= params_.memLimit;
    }

    /** Index of the slab page containing a chunk, for address
     * mapping; -1 if the pointer is not from this allocator. */
    std::int64_t pageIndexOf(const void *chunk) const;

    /**
     * Full structural audit of the class tables and accounting:
     * per-class chunk counts, page assignment, byte accounting, and
     * free-list sanity. O(pages + free chunks); meant for tests and
     * MERCURY_ASSERT_SLOW, not the hot path.
     */
    bool checkConsistency() const;

    /** Byte offset of a chunk within its page. */
    std::uint64_t pageOffsetOf(const void *chunk) const;

    const SlabParams &params() const { return params_; }

  private:
    struct SlabClass
    {
        std::uint32_t chunkSize;
        /** Chunks handed back, the next to go at the back. */
        std::vector<void *> freeChunks;
        /** The newest page's chunks never handed out are its first
         * freshChunks, at freshPage; they go highest first, once
         * freeChunks is empty. */
        char *freshPage = nullptr;
        std::uint32_t freshChunks = 0;
        std::uint64_t totalChunks = 0;
        unsigned pages = 0;
    };

    /** Assign a fresh page to a class; false if out of budget. */
    bool growClass(unsigned cls);

    /** True if @p chunk lies on a chunk boundary of a page owned by
     * class @p cls. */
    bool chunkClassMatches(unsigned cls, const void *chunk) const;

    /** True if @p chunk is one of @p slab_class's chunks never
     * handed out. */
    static bool isFresh(const SlabClass &slab_class, const void *chunk);

    SlabParams params_;
    std::vector<SlabClass> classes_;
    /** Owning storage for pages, in allocation order. */
    std::vector<std::unique_ptr<char[], PoolDeleter>> pages_;
    /** (base address, page index) sorted by base, for pageIndexOf. */
    std::vector<std::pair<const char *, std::uint32_t>> pageBases_;
    /** Owning class of each page, indexed like pages_. */
    std::vector<std::uint32_t> pageClass_;

    std::uint64_t allocatedBytes_ = 0;
    std::uint64_t usedBytes_ = 0;
};

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_SLAB_HH
