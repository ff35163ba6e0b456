#include "kvstore/slab.hh"

#include <algorithm>

#include "sim/contract.hh"

namespace mercury::kvstore
{

SlabAllocator::SlabAllocator(const SlabParams &params)
    : params_(params)
{
    MERCURY_EXPECTS(params_.pageSize >= params_.minChunk,
                    "slab page must fit at least one chunk");
    MERCURY_EXPECTS(params_.growthFactor > 1.0,
                    "slab growth factor must exceed 1");
    MERCURY_EXPECTS(params_.memLimit >= params_.pageSize,
                    "memory limit below one slab page");

    // Build the geometric class table, ending with one whole page.
    double size = params_.minChunk;
    while (static_cast<std::uint32_t>(size) < params_.pageSize) {
        SlabClass cls;
        cls.chunkSize =
            (static_cast<std::uint32_t>(size) + 7u) & ~7u;  // align 8
        if (!classes_.empty() &&
            cls.chunkSize <= classes_.back().chunkSize) {
            cls.chunkSize = classes_.back().chunkSize + 8;
        }
        classes_.push_back(cls);
        size *= params_.growthFactor;
    }
    SlabClass full_page;
    full_page.chunkSize = params_.pageSize;
    classes_.push_back(full_page);
}

int
SlabAllocator::classFor(std::size_t bytes) const
{
    if (bytes > params_.pageSize)
        return -1;
    // Classes are sorted; binary search for the first that fits.
    auto it = std::lower_bound(
        classes_.begin(), classes_.end(), bytes,
        [](const SlabClass &cls, std::size_t want) {
            return cls.chunkSize < want;
        });
    MERCURY_ASSERT(it != classes_.end(), "class table must cover page");
    return static_cast<int>(it - classes_.begin());
}

std::uint32_t
SlabAllocator::chunkSize(unsigned cls) const
{
    MERCURY_EXPECTS(cls < classes_.size(), "bad slab class ", cls);
    return classes_[cls].chunkSize;
}

bool
SlabAllocator::growClass(unsigned cls)
{
    if (!canGrow())
        return false;

    // Left unzeroed: Store::buildItem writes an allocated chunk's
    // header, key and value before anything reads them, and nothing
    // reads the slack past the value. Zero-filling would only make
    // the host touch pages the model has not used yet.
    std::unique_ptr<char[], PoolDeleter> page(
        static_cast<char *>(takeBlock(params_.pageSize)),
        PoolDeleter{params_.pageSize});
    char *base = page.get();
    const auto page_index = static_cast<std::uint32_t>(pages_.size());
    pages_.push_back(std::move(page));
    pageClass_.push_back(cls);

    auto pos = std::lower_bound(
        pageBases_.begin(), pageBases_.end(), base,
        [](const auto &entry, const char *want) {
            return entry.first < want;
        });
    pageBases_.insert(pos, {base, page_index});

    // The page's chunks are carved as they are handed out, not
    // listed here: a page holding a few items costs no list of every
    // chunk it could hold.
    SlabClass &slab_class = classes_[cls];
    const std::uint32_t chunks = params_.pageSize /
                                 slab_class.chunkSize;
    slab_class.freshPage = base;
    slab_class.freshChunks = chunks;
    slab_class.totalChunks += chunks;
    ++slab_class.pages;
    allocatedBytes_ += params_.pageSize;
    MERCURY_ENSURES(allocatedBytes_ <= params_.memLimit,
                    "slab pages exceed the memory budget");
    MERCURY_ASSERT_SLOW(checkConsistency(),
                        "slab tables inconsistent after page grow");
    return true;
}

void *
SlabAllocator::allocate(unsigned cls)
{
    MERCURY_EXPECTS(cls < classes_.size(), "bad slab class ", cls);
    SlabClass &slab_class = classes_[cls];
    void *chunk;
    if (!slab_class.freeChunks.empty()) {
        chunk = slab_class.freeChunks.back();
        slab_class.freeChunks.pop_back();
    } else if (slab_class.freshChunks > 0 || growClass(cls)) {
        chunk = slab_class.freshPage +
                std::size_t{--slab_class.freshChunks} *
                    slab_class.chunkSize;
    } else {
        return nullptr;
    }
    usedBytes_ += slab_class.chunkSize;
    MERCURY_ENSURES(usedBytes_ <= allocatedBytes_,
                    "more chunk bytes in use than pages assigned");
    MERCURY_ENSURES(chunkClassMatches(cls, chunk),
                    "allocator handed out a chunk from the wrong class");
    return chunk;
}

bool
SlabAllocator::chunkClassMatches(unsigned cls, const void *chunk) const
{
    const std::int64_t page = pageIndexOf(chunk);
    if (page < 0)
        return false;
    if (pageClass_[static_cast<std::size_t>(page)] != cls)
        return false;
    // A chunk pointer must sit on a chunk boundary of its class.
    return pageOffsetOf(chunk) % classes_[cls].chunkSize == 0;
}

bool
SlabAllocator::isFresh(const SlabClass &slab_class, const void *chunk)
{
    const char *p = static_cast<const char *>(chunk);
    return p >= slab_class.freshPage &&
           p < slab_class.freshPage +
                   std::size_t{slab_class.freshChunks} *
                       slab_class.chunkSize;
}

void
SlabAllocator::free(unsigned cls, void *chunk)
{
    MERCURY_EXPECTS(cls < classes_.size(), "bad slab class ", cls);
    MERCURY_EXPECTS(chunk != nullptr, "free of null chunk");
    MERCURY_EXPECTS(chunkClassMatches(cls, chunk),
                    "free of chunk that was not allocated from class ",
                    cls);
    SlabClass &slab_class = classes_[cls];
    MERCURY_EXPECTS(usedChunks(cls) > 0,
                    "free with no chunks outstanding in class ", cls,
                    " (double free?)");
    MERCURY_ASSERT_SLOW(std::find(slab_class.freeChunks.begin(),
                                  slab_class.freeChunks.end(),
                                  chunk) == slab_class.freeChunks.end() &&
                            !isFresh(slab_class, chunk),
                        "double free of slab chunk in class ", cls);
    slab_class.freeChunks.push_back(chunk);
    MERCURY_ASSERT(usedBytes_ >= slab_class.chunkSize,
                   "slab accounting underflow");
    usedBytes_ -= slab_class.chunkSize;
}

std::uint64_t
SlabAllocator::usedChunks(unsigned cls) const
{
    MERCURY_EXPECTS(cls < classes_.size(), "bad slab class ", cls);
    const SlabClass &slab_class = classes_[cls];
    MERCURY_ASSERT(slab_class.freeChunks.size() +
                           slab_class.freshChunks <=
                       slab_class.totalChunks,
                   "class ", cls, " free list larger than the class");
    return slab_class.totalChunks - slab_class.freeChunks.size() -
           slab_class.freshChunks;
}

bool
SlabAllocator::checkConsistency() const
{
    if (pages_.size() != pageClass_.size() ||
        pages_.size() != pageBases_.size()) {
        return false;
    }
    if (allocatedBytes_ != pages_.size() * params_.pageSize)
        return false;

    std::uint64_t used_bytes = 0;
    std::vector<unsigned> pages_per_class(classes_.size(), 0);
    for (const std::uint32_t cls : pageClass_) {
        if (cls >= classes_.size())
            return false;
        ++pages_per_class[cls];
    }

    for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
        const SlabClass &slab_class = classes_[cls];
        if (slab_class.pages != pages_per_class[cls])
            return false;
        const std::uint64_t chunks_per_page =
            params_.pageSize / slab_class.chunkSize;
        if (slab_class.totalChunks !=
            chunks_per_page * slab_class.pages) {
            return false;
        }
        const std::uint64_t idle =
            slab_class.freeChunks.size() + slab_class.freshChunks;
        if (idle > slab_class.totalChunks)
            return false;
        for (const void *chunk : slab_class.freeChunks) {
            if (!chunkClassMatches(static_cast<unsigned>(cls), chunk) ||
                isFresh(slab_class, chunk))
                return false;
        }
        if (slab_class.freshChunks > 0 &&
            (slab_class.freshChunks > chunks_per_page ||
             !chunkClassMatches(static_cast<unsigned>(cls),
                                slab_class.freshPage)))
            return false;
        used_bytes += (slab_class.totalChunks - idle) *
                      slab_class.chunkSize;
    }
    return used_bytes == usedBytes_;
}

std::int64_t
SlabAllocator::pageIndexOf(const void *chunk) const
{
    const char *p = static_cast<const char *>(chunk);
    auto it = std::upper_bound(
        pageBases_.begin(), pageBases_.end(), p,
        [](const char *want, const auto &entry) {
            return want < entry.first;
        });
    if (it == pageBases_.begin())
        return -1;
    --it;
    if (p >= it->first + params_.pageSize)
        return -1;
    return it->second;
}

std::uint64_t
SlabAllocator::pageOffsetOf(const void *chunk) const
{
    const char *p = static_cast<const char *>(chunk);
    auto it = std::upper_bound(
        pageBases_.begin(), pageBases_.end(), p,
        [](const char *want, const auto &entry) {
            return want < entry.first;
        });
    MERCURY_EXPECTS(it != pageBases_.begin(),
                    "pointer not from this allocator");
    --it;
    return static_cast<std::uint64_t>(p - it->first);
}

} // namespace mercury::kvstore
