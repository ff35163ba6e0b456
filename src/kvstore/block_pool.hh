/**
 * @file
 * A process-wide pool for the store's large blocks: slab pages and
 * hash bucket arrays.
 *
 * A block of 128 KiB or more that is handed back is kept, and the
 * next request for exactly its size gets it again; it is never
 * returned to the C library. Smaller blocks go straight to operator
 * new and delete. glibc serves such blocks with mmap, and
 * freeing one raises its mmap threshold to that block's size for
 * every later allocation. In a process that builds store after store
 * (a benchmark that sets up a fresh cluster per timed segment) every
 * later store's pages then came from the heap, where freed pages
 * stay resident and the next store's blocks land at other offsets:
 * peak RSS grew with each store and with what was allocated between
 * them. A pooled block is reused in place, so a later store touches
 * the pages an earlier one touched.
 */

#ifndef MERCURY_KVSTORE_BLOCK_POOL_HH
#define MERCURY_KVSTORE_BLOCK_POOL_HH

#include <cstddef>

namespace mercury::kvstore
{

/**
 * A block of @p bytes, aligned for any scalar type: a pooled block of
 * exactly that size if there is one, else a new one. Its contents are
 * unspecified. Thread-safe.
 */
void *takeBlock(std::size_t bytes);

/** Hand back a block that takeBlock(@p bytes) returned. Thread-safe. */
void returnBlock(void *block, std::size_t bytes) noexcept;

/** Allocator for containers whose storage should come from the pool. */
template <typename T>
struct PoolAllocator
{
    using value_type = T;

    PoolAllocator() = default;

    template <typename U>
    PoolAllocator(const PoolAllocator<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(takeBlock(n * sizeof(T)));
    }

    void
    deallocate(T *block, std::size_t n) noexcept
    {
        returnBlock(block, n * sizeof(T));
    }

    friend bool
    operator==(const PoolAllocator &, const PoolAllocator &)
    {
        return true;
    }
};

/** unique_ptr deleter that hands a @p bytes-byte block back. */
struct PoolDeleter
{
    std::size_t bytes;

    void
    operator()(char *block) const noexcept
    {
        returnBlock(block, bytes);
    }
};

} // namespace mercury::kvstore

#endif // MERCURY_KVSTORE_BLOCK_POOL_HH
