/**
 * @file
 * Unit tests for the kernel-bypass datapath pieces: the on-NIC GET
 * cache (deterministic LRU with invalidation) and the
 * batched UDP datagram delivery path.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/datapath.hh"
#include "net/network.hh"

namespace
{

using namespace mercury;
using namespace mercury::net;

DatapathParams
cacheParams(unsigned entries)
{
    DatapathParams p;
    p.nicCacheEntries = entries;
    return p;
}

/** @p prefix followed by @p i. Built with append because
 * `"k" + std::to_string(i)` trips a gcc 12 -Wrestrict false positive
 * in optimised builds. */
std::string
numbered(const char *prefix, int i)
{
    std::string out = prefix;
    out.append(std::to_string(i));
    return out;
}

// ---------------------------------------------------------------
// NicGetCache
// ---------------------------------------------------------------

TEST(NicGetCache, MissThenFillThenHit)
{
    NicGetCache cache(cacheParams(4));
    EXPECT_FALSE(cache.lookup("k").has_value());
    cache.fill("k", "value");
    const auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "value");
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.fills(), 1u);
}

TEST(NicGetCache, LruEvictsOldestAtCapacity)
{
    NicGetCache cache(cacheParams(2));
    cache.fill("a", "1");
    cache.fill("b", "2");
    cache.fill("c", "3");  // evicts "a"
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.lookup("a").has_value());
    EXPECT_TRUE(cache.lookup("b").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());
}

TEST(NicGetCache, LookupPromotesAgainstEviction)
{
    NicGetCache cache(cacheParams(2));
    cache.fill("a", "1");
    cache.fill("b", "2");
    ASSERT_TRUE(cache.lookup("a").has_value());  // "b" is now LRU
    cache.fill("c", "3");
    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_FALSE(cache.lookup("b").has_value());
}

TEST(NicGetCache, RefillUpdatesValueInPlace)
{
    NicGetCache cache(cacheParams(2));
    cache.fill("k", "old");
    cache.fill("k", "new");
    EXPECT_EQ(cache.size(), 1u);
    const auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "new");
}

TEST(NicGetCache, InvalidateDropsTheEntry)
{
    NicGetCache cache(cacheParams(4));
    cache.fill("k", "v");
    cache.invalidate("k");
    EXPECT_EQ(cache.invalidations(), 1u);
    EXPECT_FALSE(cache.lookup("k").has_value());
    // Invalidating an absent key is a no-op, not an error.
    cache.invalidate("absent");
    EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(NicGetCache, OversizedValuesAreNotCached)
{
    DatapathParams p = cacheParams(4);
    p.nicCacheMaxValueBytes = 8;
    NicGetCache cache(p);
    cache.fill("big", std::string(9, 'x'));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.fills(), 0u);
    cache.fill("ok", std::string(8, 'x'));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(NicGetCache, EvictionOrderIsDeterministic)
{
    // Same operation sequence twice -> same survivor set.
    auto run = [] {
        NicGetCache cache(cacheParams(8));
        for (int i = 0; i < 64; ++i) {
            const std::string key = numbered("k", i % 13);
            if (i % 3 == 0)
                cache.fill(key, numbered("v", i));
            else
                cache.lookup(key);
        }
        std::set<std::string> alive;
        for (int i = 0; i < 13; ++i) {
            const std::string key = numbered("k", i);
            if (cache.lookup(key).has_value())
                alive.insert(key);
        }
        return alive;
    };
    EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------
// Batched datagram delivery
// ---------------------------------------------------------------

TEST(DeliverDatagrams, ChargesUdpOverheadPerDatagram)
{
    NetworkPath path(NetParams{});
    const DeliveryResult r = path.deliverDatagrams(1000, 0, 2);
    EXPECT_EQ(r.packets, 2u);
    EXPECT_EQ(r.wireBytes,
              1000 + 2 * path.params().udpPerPacketOverhead);
    EXPECT_EQ(r.drops, 0u);
    EXPECT_EQ(r.retransmits, 0u);
}

TEST(DeliverDatagrams, UdpBeatsTcpForSmallMessages)
{
    // One 64 B response: UDP's 66-byte overhead vs TCP's 78.
    NetworkPath udp(NetParams{});
    NetworkPath tcp(NetParams{});
    const DeliveryResult u = udp.deliverDatagrams(64, 0, 1);
    const DeliveryResult t = tcp.deliver(64, 0);
    EXPECT_LT(u.wireBytes, t.wireBytes);
    EXPECT_LE(u.completion, t.completion);
}

TEST(DeliverDatagrams, BackToBackMessagesQueue)
{
    NetworkPath path(NetParams{});
    const DeliveryResult first = path.deliverDatagrams(100000, 0, 72);
    const DeliveryResult second = path.deliverDatagrams(100000, 0, 72);
    EXPECT_GT(second.completion, first.completion)
        << "the second message serializes behind the first";
}

} // anonymous namespace
