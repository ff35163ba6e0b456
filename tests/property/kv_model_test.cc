/**
 * @file
 * Property-based tests of the key-value store against an executable
 * reference model: random operation soups (set/get/delete/expire,
 * mixed value sizes) must produce hit/miss/content outcomes identical
 * to a std::unordered_map-based oracle, eviction under strict LRU
 * must match a textbook LRU of the empirically-measured capacity,
 * and the registry counters must satisfy their algebraic invariants
 * throughout.
 */

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "kvstore/store.hh"
#include "net/datapath.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace
{

using namespace mercury;
using namespace mercury::kvstore;
using mercury::detail::concat;

/** Reference semantics of one entry. */
struct RefItem
{
    std::string value;
    std::uint32_t expiry = 0;  ///< absolute seconds; 0 = never
};

/** Expiry rule copied from Store::itemDead. */
bool
refDead(const RefItem &item, std::uint32_t now)
{
    return item.expiry != 0 && item.expiry <= now;
}

/** Algebraic invariants every counter snapshot must satisfy. */
void
expectCounterInvariants(const Store &store)
{
    const StoreCounters &c = store.counters();
    EXPECT_EQ(c.gets.load(), c.getHits.load() + c.getMisses.load());
    EXPECT_LE(c.evictions.load(), c.sets.load());
    EXPECT_LE(c.getHits.load(), c.gets.load());
}

// ---- Random soup vs oracle (no eviction pressure) -----------------

TEST(KvModelProperty, RandomSoupMatchesOracle)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        StoreParams params;
        params.name = "soup";
        params.memLimit = 64 * miB;  // ample: no eviction pressure
        Store store(params);

        std::unordered_map<std::string, RefItem> oracle;
        Rng rng(seed);
        std::uint32_t clock = 1;
        store.setClock(clock);

        std::uint64_t hits = 0, misses = 0;
        for (unsigned op = 0; op < 4000; ++op) {
            const std::string key =
                concat("k", rng.nextInt(200));
            const unsigned kind = rng.nextInt(100);

            if (kind < 40) {  // set, mixed sizes, sometimes with TTL
                const std::uint32_t len = 1 + rng.nextInt(2048);
                const std::uint32_t ttl =
                    rng.nextInt(4) == 0 ? 1 + rng.nextInt(20) : 0;
                const std::string value(len, 'a' + op % 26);
                ASSERT_EQ(store.set(key, value, 0, ttl),
                          StoreStatus::Stored);
                oracle[key] = RefItem{
                    value, ttl == 0 ? 0 : clock + ttl};
            } else if (kind < 80) {  // get
                const GetResult got = store.get(key);
                const auto it = oracle.find(key);
                const bool oracle_hit =
                    it != oracle.end() && !refDead(it->second, clock);
                ASSERT_EQ(got.hit, oracle_hit)
                    << "op " << op << " key " << key;
                if (got.hit) {
                    ASSERT_EQ(got.value, it->second.value);
                    ++hits;
                } else {
                    ++misses;
                }
            } else if (kind < 90) {  // delete
                const StoreStatus status = store.remove(key);
                const auto it = oracle.find(key);
                const bool present =
                    it != oracle.end() && !refDead(it->second, clock);
                ASSERT_EQ(status, present ? StoreStatus::Stored
                                          : StoreStatus::NotFound)
                    << "op " << op << " key " << key;
                oracle.erase(key);
            } else if (kind < 95) {  // touch (expiry update)
                const std::uint32_t ttl = 1 + rng.nextInt(20);
                const StoreStatus status = store.touch(key, ttl);
                const auto it = oracle.find(key);
                const bool present =
                    it != oracle.end() && !refDead(it->second, clock);
                ASSERT_EQ(status, present ? StoreStatus::Stored
                                          : StoreStatus::NotFound);
                if (present)
                    it->second.expiry = clock + ttl;
            } else {  // let time pass: expiry becomes observable
                clock += 1 + rng.nextInt(5);
                store.setClock(clock);
            }

            if (op % 512 == 0)
                expectCounterInvariants(store);
        }

        expectCounterInvariants(store);
        const StoreCounters &c = store.counters();
        EXPECT_EQ(c.getHits.load(), hits);
        EXPECT_EQ(c.getMisses.load(), misses);
        EXPECT_EQ(c.evictions.load(), 0u)
            << "soup config must not hit eviction pressure";
        EXPECT_TRUE(store.checkConsistency());
    }
}

// ---- Eviction equivalence vs a textbook LRU -----------------------

/** Minimal reference LRU over fixed-size values. */
class RefLru
{
  public:
    explicit RefLru(std::size_t capacity) : capacity_(capacity) {}

    /** @return true if an eviction happened. */
    bool
    insert(const std::string &key)
    {
        bool evicted = false;
        if (order_.size() == capacity_) {
            map_.erase(order_.back());
            order_.pop_back();
            evicted = true;
            ++evictions_;
        }
        order_.push_front(key);
        map_[key] = order_.begin();
        return evicted;
    }

    bool
    get(const std::string &key)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return false;
        order_.splice(order_.begin(), order_, it->second);
        return true;
    }

    std::size_t size() const { return order_.size(); }
    std::uint64_t evictions() const { return evictions_; }
    const std::list<std::string> &order() const { return order_; }

  private:
    std::size_t capacity_;
    std::list<std::string> order_;  ///< front = MRU
    std::unordered_map<std::string, std::list<std::string>::iterator>
        map_;
    std::uint64_t evictions_ = 0;
};

StoreParams
evictionParams()
{
    StoreParams params;
    params.name = "lru";
    // Tiny budget in small pages so eviction pressure arrives after
    // a few hundred items.
    params.memLimit = 64 * kiB;
    params.slab.pageSize = 16 * kiB;
    return params;
}

/** Fixed-size values keep everything in one slab class, where the
 * store's strict LRU is a plain LRU we can mirror exactly. */
constexpr std::uint32_t kValueLen = 100;

/** Insert distinct keys into a throwaway store until it first
 * evicts; the count of resident items just before that is the
 * effective item capacity for this geometry. */
std::size_t
measureCapacity()
{
    Store store(evictionParams());
    const std::string value(kValueLen, 'v');
    std::size_t capacity = 0;
    for (unsigned i = 0; i < 100000; ++i) {
        EXPECT_EQ(store.set("cap" + std::to_string(i), value),
                  StoreStatus::Stored);
        if (store.counters().evictions.load() > 0)
            return capacity;
        capacity = store.itemCount();
    }
    ADD_FAILURE() << "store never evicted";
    return capacity;
}

TEST(KvModelProperty, StrictLruEvictionMatchesReferenceLru)
{
    const std::size_t capacity = measureCapacity();
    ASSERT_GT(capacity, 16u);

    for (std::uint64_t seed = 11; seed <= 13; ++seed) {
        Store store(evictionParams());
        RefLru ref(capacity);
        Rng rng(seed);
        const std::string value(kValueLen, 'v');

        unsigned next_key = 0;
        for (unsigned op = 0; op < 8000; ++op) {
            if (rng.nextInt(2) == 0) {
                // Insert a brand-new key (overwrites are exercised
                // by the soup test; here they would entangle slab
                // reuse with LRU order).
                const std::string key =
                    "k" + std::to_string(next_key++);
                ASSERT_EQ(store.set(key, value),
                          StoreStatus::Stored);
                ref.insert(key);
            } else if (next_key > 0) {
                // Get a key from a window around the capacity edge,
                // where hit/miss depends on exact eviction order.
                const unsigned span = static_cast<unsigned>(
                    std::min<std::size_t>(next_key, capacity + 32));
                const std::string key =
                    "k" + std::to_string(
                              next_key - 1 - rng.nextInt(span));
                const bool store_hit = store.get(key).hit;
                const bool ref_hit = ref.get(key);
                ASSERT_EQ(store_hit, ref_hit)
                    << "op " << op << " key " << key;
            }

            ASSERT_EQ(store.counters().evictions.load(),
                      ref.evictions())
                << "eviction count diverged at op " << op;
        }

        EXPECT_EQ(store.itemCount(), ref.size());
        // Every key the reference retains must be resident (the
        // final sweep reorders both sides identically).
        for (const std::string &key : ref.order())
            EXPECT_TRUE(store.get(key).hit) << key;
        EXPECT_TRUE(store.checkConsistency());
        expectCounterInvariants(store);
    }
}

// ---- On-NIC GET cache vs the store --------------------------------

/**
 * The NIC cache is a *value* cache in front of the store, wired the
 * way ServerModel wires it: GETs look up the cache first and fill on
 * a store hit, SETs and DELETEs invalidate. Under a random
 * SET/GET/DELETE soup with TTLs, every cache hit must return exactly
 * the bytes a store read would have returned at that instant --
 * stale hits (missed invalidation, outlived TTL) are the bug class
 * this pins down.
 */
TEST(KvModelProperty, NicCacheHitsMatchTheStoreExactly)
{
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        StoreParams params;
        params.name = "niccache";
        params.memLimit = 64 * miB;  // no eviction pressure
        Store store(params);

        net::DatapathParams dp;
        dp.nicCacheEntries = 16;  // far smaller than the 200-key
                                  // space: eviction churn is part of
                                  // the test
        dp.nicCacheMaxValueBytes = 1024;
        net::NicGetCache cache(dp);

        Rng rng(seed);
        std::uint32_t clock = 1;
        store.setClock(clock);

        // Absolute expiry per key, tracked the way the protocol
        // layer would learn it from the SET (0 = never). Mirrors
        // Store::expiryFor: ttl ? clock + ttl : 0.
        std::map<std::string, std::uint64_t> expiry_of;

        std::uint64_t nic_hits = 0;
        for (unsigned op = 0; op < 6000; ++op) {
            const std::string key =
                concat("k", rng.nextInt(200));
            const unsigned kind = rng.nextInt(100);

            if (kind < 35) {  // SET (sometimes TTL'd, mixed sizes)
                const std::uint32_t len = 1 + rng.nextInt(2000);
                const std::uint32_t ttl =
                    rng.nextInt(4) == 0 ? 1 + rng.nextInt(20) : 0;
                ASSERT_EQ(store.set(key, std::string(len, 'a' + op % 26),
                                    0, ttl),
                          StoreStatus::Stored);
                expiry_of[key] = ttl == 0 ? 0 : clock + ttl;
                cache.invalidate(key);
            } else if (kind < 85) {  // GET through the NIC frontend
                const auto cached = cache.lookup(key, clock);
                const GetResult direct = store.get(key);
                if (cached.has_value()) {
                    ++nic_hits;
                    ASSERT_TRUE(direct.hit)
                        << "op " << op << ": NIC cache served key '"
                        << key << "' the store no longer has";
                    ASSERT_EQ(*cached, direct.value)
                        << "op " << op << ": stale NIC-cache bytes";
                } else if (direct.hit) {
                    // Miss path: the core answered; the NIC caches
                    // the response with the item's absolute expiry
                    // (values over the size cap stay uncached).
                    cache.fill(key, direct.value, expiry_of[key]);
                }
            } else if (kind < 92) {  // DELETE
                store.remove(key);
                cache.invalidate(key);
            } else {  // time passes; TTL expiry becomes observable
                clock += 1 + rng.nextInt(4);
                store.setClock(clock);
            }
        }
        EXPECT_GT(nic_hits, 100u)
            << "soup never exercised the NIC-cache hit path";
        EXPECT_GT(cache.evictions(), 0u)
            << "soup never exercised NIC-cache eviction churn";
        EXPECT_TRUE(store.checkConsistency());
    }
}

// ---- Registry bridge invariants -----------------------------------

TEST(KvModelProperty, RegisteredStatsMirrorCounters)
{
    stats::Registry registry("test");
    StoreParams params;
    params.name = "store";
    Store store(params);
    store.registerStats(&registry);

    Rng rng(99);
    for (unsigned op = 0; op < 500; ++op) {
        const std::string key =
            concat("k", rng.nextInt(50));
        if (rng.nextInt(2) == 0)
            store.set(key, "value");
        else
            store.get(key);
    }

    const StoreCounters &c = store.counters();
    const auto formula = [&](const char *path) {
        const auto *stat = registry.find(path);
        const auto *f =
            dynamic_cast<const stats::Formula *>(stat);
        EXPECT_NE(f, nullptr) << path;
        return f ? f->value() : -1.0;
    };

    EXPECT_EQ(formula("store.gets"), double(c.gets.load()));
    EXPECT_EQ(formula("store.getHits"), double(c.getHits.load()));
    EXPECT_EQ(formula("store.getMisses"),
              double(c.getMisses.load()));
    EXPECT_EQ(formula("store.sets"), double(c.sets.load()));
    EXPECT_EQ(formula("store.items"), double(store.itemCount()));
    EXPECT_EQ(formula("store.usedBytes"),
              double(store.usedBytes()));
    EXPECT_EQ(formula("store.hitRate"),
              double(c.getHits.load()) / double(c.gets.load()));

    // The whole tree serializes deterministically.
    std::ostringstream a, b;
    registry.writeJson(a);
    registry.writeJson(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("\"test.store.gets\":"),
              std::string::npos);

    // Re-registration replaces, not duplicates.
    store.registerStats(&registry);
    std::ostringstream c2;
    registry.writeJson(c2);
    EXPECT_EQ(a.str(), c2.str());
}

} // anonymous namespace
