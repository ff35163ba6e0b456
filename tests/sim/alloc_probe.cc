/**
 * @file
 * Replacement global allocation operators for the allocation probe
 * (alloc_probe.hh). Link this file into a test binary to count its
 * heap allocations; it may be linked at most once per binary.
 */

#include <cstdlib>
#include <new>

#include "alloc_probe.hh"

// Delegate to malloc/free and count calls; behaviour is unchanged,
// so the rest of the test binary is unaffected.
//
// GCC's new/free pairing heuristic cannot see that the replacement
// operator new allocates with malloc, so it misfires wherever these
// definitions inline.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

std::atomic<std::uint64_t> mercuryAllocCalls{0};

void *
operator new(std::size_t size)
{
    ++mercuryAllocCalls;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
