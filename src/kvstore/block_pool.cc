#include "kvstore/block_pool.hh"

#include <mutex>
#include <new>
#include <set>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace mercury::kvstore
{

namespace
{

/** Blocks this large or larger are pooled: glibc's initial mmap
 * threshold. */
constexpr std::size_t pooledBytes = 128 * 1024;

// An idle block is poisoned under AddressSanitizer, so a use after
// it was handed back is still reported.
void
poison([[maybe_unused]] void *block, [[maybe_unused]] std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(block, bytes);
#endif
}

void
unpoison([[maybe_unused]] void *block, [[maybe_unused]] std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#endif
}

struct Pool
{
    std::mutex mutex;
    /** (size, address) of every block handed back and not yet taken,
     * in increasing order. */
    std::set<std::pair<std::size_t, char *>> idle;
};

Pool &
pool()
{
    // Never destroyed: a store in static storage may hand its blocks
    // back after every other static has gone.
    static Pool *const instance = new Pool;
    return *instance;
}

} // anonymous namespace

void *
takeBlock(std::size_t bytes)
{
    if (bytes >= pooledBytes) {
        // The highest idle address of the size. Fresh blocks are
        // mapped top down, so a process that repeats a sequence of
        // stores gives each block the same role each time, the first
        // time included, and touches the same pages of it.
        Pool &p = pool();
        const std::lock_guard<std::mutex> lock(p.mutex);
        auto it = p.idle.lower_bound({bytes + 1, nullptr});
        if (it != p.idle.begin() && (--it)->first == bytes) {
            char *block = it->second;
            p.idle.erase(it);
            unpoison(block, bytes);
            return block;
        }
    }
    return ::operator new(bytes);
}

void
returnBlock(void *block, std::size_t bytes) noexcept
{
    if (!block)
        return;
    if (bytes < pooledBytes) {
        ::operator delete(block);
        return;
    }
    Pool &p = pool();
    const std::lock_guard<std::mutex> lock(p.mutex);
    poison(block, bytes);
    p.idle.emplace(bytes, static_cast<char *>(block));
}

} // namespace mercury::kvstore
