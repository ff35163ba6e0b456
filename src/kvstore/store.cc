#include "kvstore/store.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <new>

#include "kvstore/hash.hh"
#include "sim/logging.hh"

namespace mercury::kvstore
{

namespace
{

enum StoreMode { modeSet, modeAdd, modeReplace, modeCas };

} // anonymous namespace

Store::Store(const StoreParams &params)
    : params_(params),
      slabs_([&] {
          SlabParams sp = params.slab;
          sp.memLimit = params.memLimit;
          return sp;
      }()),
      table_(params.hashPower)
{
    mercury_assert(params_.lockStripes >= 1, "need at least one stripe");
    // Buckets and stripes both index by the low hash bits; a bucket's
    // chain sits under one stripe only if the stripe count is a power
    // of two no larger than the bucket count.
    mercury_assert(params_.locking != LockingMode::Striped ||
                       (std::has_single_bit(params_.lockStripes) &&
                        params_.lockStripes <= table_.buckets()),
                   "striped locking needs a power-of-two stripe count "
                   "no larger than the bucket count");
    policies_.reserve(slabs_.numClasses());
    for (unsigned cls = 0; cls < slabs_.numClasses(); ++cls) {
        if (params_.eviction == EvictionPolicyKind::Bags)
            policies_.push_back(
                std::make_unique<BagLru>(params_.bagAgeSeconds));
        else
            policies_.push_back(std::make_unique<StrictLru>());
    }
    stripes_.reserve(params_.lockStripes);
    for (unsigned i = 0; i < params_.lockStripes; ++i)
        stripes_.push_back(std::make_unique<std::recursive_mutex>());
}

// Defined below RegisteredStats so unique_ptr sees a complete type.

unsigned
Store::stripeOf(std::uint64_t hash) const
{
    return static_cast<unsigned>(hash % stripes_.size());
}

bool
Store::itemDead(const Item *item) const
{
    if (item->casId <= flushCas_.load(std::memory_order_relaxed))
        return true;
    const std::uint32_t now = clock_.load(std::memory_order_relaxed);
    return item->expiry != 0 && item->expiry <= now;
}

std::uint32_t
Store::expiryFor(std::uint32_t ttl) const
{
    return ttl == 0 ? 0 : clock_.load(std::memory_order_relaxed) + ttl;
}

/**
 * Readers serialize on the whole store when the configuration demands
 * it: Global locking (memcached 1.4), or strict LRU, whose
 * move-to-front makes every GET a list mutation. Bags + striped
 * locking is the scalable 1.6 configuration: GETs take only their
 * stripe.
 */
struct Store::StripeLock
{
    StripeLock(Store &store, std::uint64_t hash, bool mutation)
    {
        // Bags is the only policy whose GET path mutates no shared
        // list state; every other policy's reads serialize on the
        // store-wide lock (the memcached 1.4 behaviour).
        const bool whole_store =
            store.params_.locking == LockingMode::Global ||
            store.params_.eviction != EvictionPolicyKind::Bags;
        if (mutation || whole_store)
            alloc = std::unique_lock<std::recursive_mutex>(
                store.allocMutex_);
        if (store.params_.locking != LockingMode::Striped)
            return;
        if (mutation && store.table_.mutationMayRestructure())
            allStripes = store.lockAllStripes();
        else
            stripe = std::unique_lock<std::recursive_mutex>(
                *store.stripes_[store.stripeOf(hash)]);
    }

    std::unique_lock<std::recursive_mutex> alloc;
    std::unique_lock<std::recursive_mutex> stripe;
    std::vector<std::unique_lock<std::recursive_mutex>> allStripes;
};

/**
 * Doubling the hash table or migrating its buckets moves chains of
 * every stripe, and a Bags + Striped GET holds only its own stripe. So
 * a mutation that may do either (HashTable::mutationMayRestructure)
 * takes every stripe, in index order and before any other, as
 * memcached switches to global item locks while it expands. The
 * caller holds allocMutex_, which serializes all mutations: the table
 * cannot start restructuring after the check, since within one
 * mutation only its last insert can start an expansion.
 */
std::vector<std::unique_lock<std::recursive_mutex>>
Store::lockAllStripes()
{
    std::vector<std::unique_lock<std::recursive_mutex>> held;
    held.reserve(stripes_.size());
    for (auto &stripe : stripes_)
        held.emplace_back(*stripe);
    return held;
}

void
Store::destroyItem(Item *item)
{
    const std::uint64_t hash = hashKey(item->key());
    Item *removed = table_.remove(item->key(), hash);
    mercury_assert(removed == item, "hash table / policy out of sync");
    policies_[item->slabClass]->onRemove(item);
    slabs_.free(item->slabClass, item);
}

void *
Store::allocateWithEviction(unsigned cls, ProbeTrace *trace)
{
    for (int attempt = 0; attempt < 64; ++attempt) {
        void *chunk = slabs_.allocate(cls);
        if (chunk)
            return chunk;

        Item *victim = policies_[cls]->victim(clock_.load());
        if (!victim)
            return nullptr;

        // The victim may live in another stripe; mutations are
        // serialized by allocMutex_, so grabbing it here is safe and
        // recursive mutexes tolerate it being the stripe we hold.
        std::unique_lock<std::recursive_mutex> victim_stripe;
        if (params_.locking == LockingMode::Striped) {
            victim_stripe = std::unique_lock<std::recursive_mutex>(
                *stripes_[stripeOf(hashKey(victim->key()))]);
        }

        if (itemDead(victim)) {
            counters_.expiredReclaimed.fetch_add(1);
        } else {
            counters_.evictions.fetch_add(1);
        }
        if (trace)
            trace->evictedItems.push_back(victim);
        destroyItem(victim);
    }
    return nullptr;
}

Item *
Store::buildItem(void *chunk, unsigned cls, std::string_view key,
                 std::string_view value, std::uint32_t flags,
                 std::uint32_t ttl)
{
    Item *item = new (chunk) Item();
    item->slabClass = static_cast<std::uint8_t>(cls);
    item->clientFlags = flags;
    item->expiry = expiryFor(ttl);
    item->casId = casCounter_.fetch_add(1) + 1;
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

    StripeLock guard(*this, hash, false);

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

    policies_[item->slabClass]->onAccess(item, clock_.load());

    trace.hit = true;
    trace.itemAddr = item;
    trace.valueLen = item->valueLen;

    result.hit = true;
    result.value.assign(item->value());
    result.cas = item->casId;
    result.flags = item->clientFlags;
    counters_.getHits.fetch_add(1);
    return result;
}

StoreStatus
Store::storeInternal(std::string_view key, std::string_view value,
                     std::uint32_t flags, std::uint32_t ttl, int mode,
                     std::uint64_t cas_token, ProbeTrace *trace)
{
    if (key.empty() || key.size() > 250)
        return StoreStatus::BadValue;

    const std::uint64_t hash = hashKey(key);
    counters_.sets.fetch_add(1);

    StripeLock guard(*this, hash, true);

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
        counters_.expiredReclaimed.fetch_add(1);
        destroyItem(existing);
        existing = nullptr;
    }

    switch (mode) {
      case modeAdd:
        if (existing)
            return StoreStatus::NotStored;
        break;
      case modeReplace:
        if (!existing)
            return StoreStatus::NotStored;
        break;
      case modeCas:
        if (!existing)
            return StoreStatus::NotFound;
        if (existing->casId != cas_token) {
            counters_.casMismatches.fetch_add(1);
            return StoreStatus::Exists;
        }
        break;
      default:
        break;
    }

    const int cls = slabs_.classFor(Item::totalSize(key.size(),
                                                    value.size()));
    if (cls < 0) {
        counters_.outOfMemory.fetch_add(1);
        return StoreStatus::OutOfMemory;
    }

    // Pin the existing item: take it out of the eviction policy so
    // allocateWithEviction cannot free it underneath us, but keep it
    // readable in the table until the new item is ready.
    if (existing)
        policies_[existing->slabClass]->onRemove(existing);

    void *chunk = allocateWithEviction(static_cast<unsigned>(cls),
                                       trace);
    if (!chunk) {
        if (existing) {
            policies_[existing->slabClass]->onInsert(existing,
                                                     clock_.load());
        }
        counters_.outOfMemory.fetch_add(1);
        return StoreStatus::OutOfMemory;
    }

    if (existing) {
        Item *removed = table_.remove(key, hash);
        mercury_assert(removed == existing, "table lost the pinned item");
        if (trace)
            trace->evictedItems.push_back(existing);
        slabs_.free(existing->slabClass, existing);
    }

    Item *item = buildItem(chunk, static_cast<unsigned>(cls), key,
                           value, flags, ttl);
    table_.insert(item, hash);
    policies_[item->slabClass]->onInsert(item, clock_.load());

    if (trace) {
        trace->itemAddr = item;
        trace->valueLen = item->valueLen;
        trace->hit = true;
    }
    return StoreStatus::Stored;
}

StoreStatus
Store::set(std::string_view key, std::string_view value,
           std::uint32_t flags, std::uint32_t ttl)
{
    return storeInternal(key, value, flags, ttl, modeSet, 0, nullptr);
}

StoreStatus
Store::setTraced(std::string_view key, std::string_view value,
                 std::uint32_t flags, std::uint32_t ttl,
                 ProbeTrace &trace)
{
    return storeInternal(key, value, flags, ttl, modeSet, 0, &trace);
}

StoreStatus
Store::add(std::string_view key, std::string_view value,
           std::uint32_t flags, std::uint32_t ttl)
{
    return storeInternal(key, value, flags, ttl, modeAdd, 0, nullptr);
}

StoreStatus
Store::replace(std::string_view key, std::string_view value,
               std::uint32_t flags, std::uint32_t ttl)
{
    return storeInternal(key, value, flags, ttl, modeReplace, 0,
                         nullptr);
}

StoreStatus
Store::cas(std::string_view key, std::string_view value,
           std::uint64_t cas_token, std::uint32_t flags,
           std::uint32_t ttl)
{
    return storeInternal(key, value, flags, ttl, modeCas, cas_token,
                         nullptr);
}

StoreStatus
Store::remove(std::string_view key)
{
    const std::uint64_t hash = hashKey(key);
    StripeLock guard(*this, hash, true);

    ProbeResult probe = table_.find(key, hash);
    if (!probe.item)
        return StoreStatus::NotFound;

    const bool dead = itemDead(probe.item);
    destroyItem(probe.item);
    if (dead)
        return StoreStatus::NotFound;
    counters_.deletes.fetch_add(1);
    return StoreStatus::Stored;
}

StoreStatus
Store::arith(std::string_view key, std::uint64_t delta, bool increment,
             std::uint64_t &out)
{
    const std::uint64_t hash = hashKey(key);
    StripeLock guard(*this, hash, true);

    ProbeResult probe = table_.find(key, hash);
    Item *item = probe.item;
    if (!item || itemDead(item))
        return StoreStatus::NotFound;

    const std::string_view value = item->value();
    std::uint64_t current = 0;
    auto [ptr, ec] = std::from_chars(value.data(),
                                     value.data() + value.size(),
                                     current);
    if (ec != std::errc() || ptr != value.data() + value.size())
        return StoreStatus::BadValue;

    if (increment) {
        current += delta;  // memcached wraps on overflow
    } else {
        current = delta > current ? 0 : current - delta;
    }
    out = current;

    char buf[24];
    auto [end, ec2] = std::to_chars(buf, buf + sizeof(buf), current);
    mercury_assert(ec2 == std::errc(), "to_chars cannot fail here");
    const std::string_view new_value(buf,
                                     static_cast<std::size_t>(
                                         end - buf));

    // Rewrite in place when the chunk fits; otherwise fall back to a
    // full store (new chunk, possibly a different class).
    const std::size_t needed = Item::totalSize(key.size(),
                                               new_value.size());
    if (needed <= slabs_.chunkSize(item->slabClass)) {
        item->setValue(new_value);
        item->casId = casCounter_.fetch_add(1) + 1;
        policies_[item->slabClass]->onAccess(item, clock_.load());
        return StoreStatus::Stored;
    }
    return storeInternal(key, new_value, item->clientFlags, 0, modeSet,
                         0, nullptr);
}

StoreStatus
Store::concat(std::string_view key, std::string_view value,
              bool after)
{
    const std::uint64_t hash = hashKey(key);
    StripeLock guard(*this, hash, true);

    ProbeResult probe = table_.find(key, hash);
    Item *item = probe.item;
    if (!item || itemDead(item))
        return StoreStatus::NotStored;

    std::string combined;
    combined.reserve(item->valueLen + value.size());
    if (after) {
        combined.assign(item->value());
        combined.append(value);
    } else {
        combined.assign(value);
        combined.append(item->value());
    }

    // Preserve flags and remaining TTL of the existing item.
    const std::uint32_t flags = item->clientFlags;
    std::uint32_t ttl = 0;
    if (item->expiry != 0) {
        const std::uint32_t now = clock_.load();
        if (item->expiry <= now)
            return StoreStatus::NotStored;
        ttl = item->expiry - now;
    }
    return storeInternal(key, combined, flags, ttl, modeSet, 0,
                         nullptr);
}

StoreStatus
Store::append(std::string_view key, std::string_view value)
{
    return concat(key, value, true);
}

StoreStatus
Store::prepend(std::string_view key, std::string_view value)
{
    return concat(key, value, false);
}

StoreStatus
Store::incr(std::string_view key, std::uint64_t delta,
            std::uint64_t &out)
{
    return arith(key, delta, true, out);
}

StoreStatus
Store::decr(std::string_view key, std::uint64_t delta,
            std::uint64_t &out)
{
    return arith(key, delta, false, out);
}

StoreStatus
Store::touch(std::string_view key, std::uint32_t ttl)
{
    const std::uint64_t hash = hashKey(key);
    StripeLock guard(*this, hash, true);

    ProbeResult probe = table_.find(key, hash);
    Item *item = probe.item;
    if (!item || itemDead(item))
        return StoreStatus::NotFound;

    item->expiry = expiryFor(ttl);
    policies_[item->slabClass]->onAccess(item, clock_.load());
    return StoreStatus::Stored;
}

void
Store::flushAll()
{
    std::lock_guard<std::recursive_mutex> guard(allocMutex_);
    flushCas_.store(casCounter_.load());
}

void
Store::setClock(std::uint32_t seconds)
{
    clock_.store(seconds);
}

void
Store::housekeeping(unsigned reap_limit)
{
    std::lock_guard<std::recursive_mutex> guard(allocMutex_);
    const std::uint32_t now = clock_.load();
    // Reaping removes items, and a remove migrates buckets while the
    // table expands.
    std::vector<std::unique_lock<std::recursive_mutex>> all_stripes;
    if (params_.locking == LockingMode::Striped &&
        table_.mutationMayRestructure())
        all_stripes = lockAllStripes();

    unsigned reaped = 0;
    for (auto &policy : policies_) {
        policy->age(now);
        while (reaped < reap_limit) {
            Item *victim = policy->victim(now);
            if (!victim || !itemDead(victim))
                break;
            std::unique_lock<std::recursive_mutex> stripe;
            if (params_.locking == LockingMode::Striped) {
                stripe = std::unique_lock<std::recursive_mutex>(
                    *stripes_[stripeOf(hashKey(victim->key()))]);
            }
            counters_.expiredReclaimed.fetch_add(1);
            destroyItem(victim);
            ++reaped;
        }
    }
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

std::uint64_t
Store::lruReorderOps() const
{
    std::uint64_t total = 0;
    for (const auto &policy : policies_)
        total += policy->reorderOps();
    return total;
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
          sets(&group, "sets", "store mutations (set/add/replace/cas)",
               [store] { return double(store->counters_.sets.load()); }),
          deletes(&group, "deletes", "delete operations",
                  [store] {
                      return double(store->counters_.deletes.load());
                  }),
          evictions(&group, "evictions", "items evicted for space",
                    [store] {
                        return double(store->counters_.evictions.load());
                    }),
          expired(&group, "expiredReclaimed",
                  "dead items lazily reclaimed",
                  [store] {
                      return double(
                          store->counters_.expiredReclaimed.load());
                  }),
          casMismatches(&group, "casMismatches", "cas token mismatches",
                        [store] {
                            return double(
                                store->counters_.casMismatches.load());
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
    stats::Formula deletes;
    stats::Formula evictions;
    stats::Formula expired;
    stats::Formula casMismatches;
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
Store::checkConsistency()
{
    std::lock_guard<std::recursive_mutex> guard(allocMutex_);

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
    for (const auto &policy : policies_)
        tracked += policy->trackedItems();
    if (tracked != linked)
        ok = false;

    return ok;
}

} // namespace mercury::kvstore
