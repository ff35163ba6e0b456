#include "kvstore/hash_table.hh"

#include "kvstore/hash.hh"
#include "sim/contract.hh"

namespace mercury::kvstore
{

HashTable::HashTable(unsigned initial_power)
{
    MERCURY_EXPECTS(initial_power >= 1 && initial_power <= 30,
                    "hash power out of range: ", initial_power);
    buckets_.assign(std::size_t(1) << initial_power, nullptr);
}

ProbeResult
HashTable::find(std::string_view key, std::uint64_t hash)
{
    ProbeResult result;
    result.bucketIndex = hash & (buckets_.size() - 1);
    Item **bucket = &buckets_[result.bucketIndex];
    result.bucketAddr = bucket;
    for (Item *it = *bucket; it; it = it->hNext) {
        ++result.chainLength;
        MERCURY_ASSERT(result.chainLength <= size(),
                       "bucket chain longer than the table "
                       "(corrupt chain or cycle)");
        if (it->key() == key) {
            result.item = it;
            return result;
        }
    }
    return result;
}

void
HashTable::insert(Item *item, std::uint64_t hash)
{
    MERCURY_EXPECTS(item != nullptr, "insert of null item");
    MERCURY_EXPECTS(item->hNext == nullptr,
                    "insert of item already linked in a chain");
    MERCURY_ASSERT_SLOW(find(item->key(), hash).item == nullptr,
                        "duplicate insert of key '", item->key(), "'");
    Item **bucket = &buckets_[hash & (buckets_.size() - 1)];
    item->hNext = *bucket;
    *bucket = item;
    ++size_;
    if (loadFactor() >= expandLoadFactor &&
        buckets_.size() < (std::size_t(1) << 30))
        grow();
}

Item *
HashTable::remove(std::string_view key, std::uint64_t hash)
{
    Item **bucket = &buckets_[hash & (buckets_.size() - 1)];
    for (Item **link = bucket; *link; link = &(*link)->hNext) {
        if ((*link)->key() == key) {
            Item *removed = *link;
            *link = removed->hNext;
            removed->hNext = nullptr;
            MERCURY_ASSERT(size() > 0,
                           "remove from a table that thinks it is "
                           "empty");
            --size_;
            return removed;
        }
    }
    return nullptr;
}

void
HashTable::grow()
{
    Buckets old(buckets_.size() * 2, nullptr);
    old.swap(buckets_);  // buckets_ is now the empty doubled array
    // Old bucket i splits into new buckets i and i + old.size(); each
    // item goes to the front of its new chain.
    for (Item *head : old) {
        for (Item *it = head; it;) {
            Item *next = it->hNext;
            Item **bucket =
                &buckets_[hashKey(it->key()) & (buckets_.size() - 1)];
            it->hNext = *bucket;
            *bucket = it;
            it = next;
        }
    }
    MERCURY_ASSERT_SLOW(checkIntegrity(),
                        "hash table corrupt after doubling");
}

bool
HashTable::checkIntegrity() const
{
    // Count linked items, bounding each chain walk so a cycle cannot
    // hang the audit.
    std::size_t linked = 0;
    for (const auto &head : buckets_) {
        std::size_t chain = 0;
        for (Item *it = head; it; it = it->hNext) {
            if (++chain > size() + 1)
                return false;
            ++linked;
        }
    }
    return linked == size();
}

void
HashTable::validate() const
{
    MERCURY_ASSERT(checkIntegrity(),
                   "hash table structural audit failed: size=", size(),
                   " buckets=", buckets_.size());
}

} // namespace mercury::kvstore
