#include "kvstore/store.hh"

#include <new>

#include "kvstore/hash.hh"
#include "sim/contract.hh"

namespace mercury::kvstore
{

Store::Store(const StoreParams &params)
    : params_(params),
      slabs_([&] {
          SlabParams sp = params.slab;
          sp.memLimit = params.memLimit;
          return sp;
      }()),
      table_(params.hashPower),
      lrus_(slabs_.numClasses())
{}

bool
Store::itemDead(const Item *item) const
{
    return item->casId <= flushCas_;
}

void
Store::destroyItem(Item *item)
{
    const std::uint64_t hash = hashKey(item->key());
    Item *removed = table_.remove(item->key(), hash);
    MERCURY_ASSERT(removed == item, "hash table / LRU out of sync");
    lrus_[item->slabClass].onRemove(item);
    slabs_.free(item->slabClass, item);
}

void *
Store::allocateWithEviction(unsigned cls, ProbeTrace *trace)
{
    for (int attempt = 0; attempt < 64; ++attempt) {
        void *chunk = slabs_.allocate(cls);
        if (chunk)
            return chunk;

        Item *victim = lrus_[cls].victim();
        if (!victim)
            return nullptr;

        // A flushed item is reclaimed, not evicted.
        if (!itemDead(victim))
            counters_.evictions.fetch_add(1);
        if (trace)
            trace->evictedItems.push_back(victim);
        destroyItem(victim);
    }
    return nullptr;
}

Item *
Store::buildItem(void *chunk, unsigned cls, std::string_view key,
                 std::string_view value, std::uint32_t flags)
{
    Item *item = new (chunk) Item();
    item->slabClass = static_cast<std::uint8_t>(cls);
    item->clientFlags = flags;
    item->casId = ++casCounter_;
    item->setKey(key);
    item->setValue(value);
    return item;
}

GetResult
Store::get(std::string_view key)
{
    ProbeTrace trace;
    return getTraced(key, trace);
}

GetResult
Store::getTraced(std::string_view key, ProbeTrace &trace)
{
    GetResult result;
    const std::uint64_t hash = hashKey(key);
    counters_.gets.fetch_add(1);

    ProbeResult probe = table_.find(key, hash);
    trace.bucketAddr = probe.bucketAddr;
    trace.bucketIndex = probe.bucketIndex;
    trace.chainItems.clear();
    {
        // Reconstruct the walk for the timing layer.
        Item *it = *static_cast<Item *const *>(probe.bucketAddr);
        for (unsigned i = 0; i < probe.chainLength && it;
             ++i, it = it->hNext) {
            trace.chainItems.push_back(it);
        }
    }

    Item *item = probe.item;
    if (!item || itemDead(item)) {
        counters_.getMisses.fetch_add(1);
        trace.hit = false;
        return result;
    }

    lrus_[item->slabClass].onAccess(item);

    trace.hit = true;
    trace.itemAddr = item;
    trace.valueLen = item->valueLen;

    result.hit = true;
    result.value.assign(item->value());
    result.flags = item->clientFlags;
    counters_.getHits.fetch_add(1);
    return result;
}

StoreStatus
Store::storeInternal(std::string_view key, std::string_view value,
                     std::uint32_t flags, ProbeTrace *trace)
{
    if (key.empty() || key.size() > 250)
        return StoreStatus::BadValue;

    const std::uint64_t hash = hashKey(key);
    counters_.sets.fetch_add(1);

    ProbeResult probe = table_.find(key, hash);
    if (trace) {
        trace->bucketAddr = probe.bucketAddr;
        trace->bucketIndex = probe.bucketIndex;
        Item *walk = *static_cast<Item *const *>(probe.bucketAddr);
        for (unsigned i = 0; i < probe.chainLength && walk;
             ++i, walk = walk->hNext) {
            trace->chainItems.push_back(walk);
        }
    }

    Item *existing = probe.item;
    if (existing && itemDead(existing)) {
        destroyItem(existing);
        existing = nullptr;
    }

    const int cls = slabs_.classFor(Item::totalSize(key.size(),
                                                    value.size()));
    if (cls < 0) {
        counters_.outOfMemory.fetch_add(1);
        return StoreStatus::OutOfMemory;
    }

    // Pin the existing item: take it out of its LRU so
    // allocateWithEviction cannot free it underneath us, but keep it
    // readable in the table until the new item is ready.
    if (existing)
        lrus_[existing->slabClass].onRemove(existing);

    void *chunk = allocateWithEviction(static_cast<unsigned>(cls),
                                       trace);
    if (!chunk) {
        if (existing)
            lrus_[existing->slabClass].onInsert(existing);
        counters_.outOfMemory.fetch_add(1);
        return StoreStatus::OutOfMemory;
    }

    if (existing) {
        Item *removed = table_.remove(key, hash);
        MERCURY_ASSERT(removed == existing, "table lost the pinned item");
        if (trace)
            trace->evictedItems.push_back(existing);
        slabs_.free(existing->slabClass, existing);
    }

    Item *item = buildItem(chunk, static_cast<unsigned>(cls), key,
                           value, flags);
    table_.insert(item, hash);
    lrus_[item->slabClass].onInsert(item);

    if (trace) {
        trace->itemAddr = item;
        trace->valueLen = item->valueLen;
        trace->hit = true;
    }
    return StoreStatus::Stored;
}

StoreStatus
Store::set(std::string_view key, std::string_view value,
           std::uint32_t flags)
{
    return storeInternal(key, value, flags, nullptr);
}

StoreStatus
Store::setTraced(std::string_view key, std::string_view value,
                 std::uint32_t flags, std::uint32_t ttl,
                 ProbeTrace &trace)
{
    MERCURY_EXPECTS(ttl == 0, "the store keeps no clock: ttl ", ttl);
    return storeInternal(key, value, flags, &trace);
}

void
Store::flushAll()
{
    flushCas_ = casCounter_;
}

std::size_t
Store::itemCount() const
{
    return table_.size();
}

std::uint64_t
Store::usedBytes() const
{
    return slabs_.usedBytes();
}

struct Store::RegisteredStats
{
    RegisteredStats(Store *store, stats::StatGroup *parent)
        : group(store->params_.name, parent),
          gets(&group, "gets", "GET operations",
               [store] { return double(store->counters_.gets.load()); }),
          getHits(&group, "getHits", "GETs that found a live item",
                  [store] {
                      return double(store->counters_.getHits.load());
                  }),
          getMisses(&group, "getMisses", "GETs that found nothing",
                    [store] {
                        return double(store->counters_.getMisses.load());
                    }),
          sets(&group, "sets", "set operations",
               [store] { return double(store->counters_.sets.load()); }),
          evictions(&group, "evictions", "items evicted for space",
                    [store] {
                        return double(store->counters_.evictions.load());
                    }),
          outOfMemory(&group, "outOfMemory",
                      "allocations that failed outright",
                      [store] {
                          return double(
                              store->counters_.outOfMemory.load());
                      }),
          itemCount(&group, "items", "live items resident",
                    [store] { return double(store->itemCount()); }),
          usedBytes(&group, "usedBytes", "bytes of slab memory in use",
                    [store] { return double(store->usedBytes()); }),
          hitRate(&group, "hitRate", "GET hit fraction",
                  [store] {
                      const auto gets = store->counters_.gets.load();
                      return gets ? double(
                                        store->counters_.getHits.load()) /
                                        double(gets)
                                  : 0.0;
                  })
    {}

    stats::StatGroup group;
    stats::Formula gets;
    stats::Formula getHits;
    stats::Formula getMisses;
    stats::Formula sets;
    stats::Formula evictions;
    stats::Formula outOfMemory;
    stats::Formula itemCount;
    stats::Formula usedBytes;
    stats::Formula hitRate;
};

void
Store::registerStats(stats::StatGroup *parent)
{
    stats_.reset();
    stats_ = std::make_unique<RegisteredStats>(this, parent);
}

Store::~Store() = default;

bool
Store::checkConsistency() const
{
    std::size_t linked = 0;
    bool ok = true;
    table_.forEach([&](Item *item) {
        ++linked;
        if (slabs_.pageIndexOf(item) < 0)
            ok = false;
        if (item->slabClass >= slabs_.numClasses())
            ok = false;
        if (Item::totalSize(item->keyLen, item->valueLen) >
            slabs_.chunkSize(item->slabClass)) {
            ok = false;
        }
    });
    if (linked != table_.size())
        ok = false;

    std::size_t tracked = 0;
    for (const StrictLru &lru : lrus_)
        tracked += lru.trackedItems();
    if (tracked != linked)
        ok = false;

    return ok;
}

} // namespace mercury::kvstore
