#include "kvstore/hash_table.hh"

#include "kvstore/hash.hh"
#include "sim/contract.hh"

namespace mercury::kvstore
{

HashTable::HashTable(unsigned initial_power)
{
    MERCURY_EXPECTS(initial_power >= 1 && initial_power <= 30,
                    "hash power out of range: ", initial_power);
    primary_.assign(std::size_t(1) << initial_power, nullptr);
}

Item **
HashTable::bucketFor(std::uint64_t hash, std::uint64_t &index)
{
    if (expanding_) {
        const std::size_t old_idx = hash & (old_.size() - 1);
        if (old_idx >= migrateBucket_) {
            index = old_idx;
            return &old_[old_idx];
        }
    }
    index = hash & (primary_.size() - 1);
    return &primary_[index];
}

ProbeResult
HashTable::find(std::string_view key, std::uint64_t hash)
{
    ProbeResult result;
    Item **bucket = bucketFor(hash, result.bucketIndex);
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
    std::uint64_t index = 0;
    Item **bucket = bucketFor(hash, index);
    item->hNext = *bucket;
    *bucket = item;
    ++size_;
    maybeExpand();
    if (expanding_)
        migrateStep();
}

Item *
HashTable::remove(std::string_view key, std::uint64_t hash)
{
    std::uint64_t index = 0;
    Item **bucket = bucketFor(hash, index);
    for (Item **link = bucket; *link; link = &(*link)->hNext) {
        if ((*link)->key() == key) {
            Item *removed = *link;
            *link = removed->hNext;
            removed->hNext = nullptr;
            MERCURY_ASSERT(size() > 0,
                           "remove from a table that thinks it is "
                           "empty");
            --size_;
            if (expanding_)
                migrateStep();
            return removed;
        }
    }
    return nullptr;
}

void
HashTable::maybeExpand()
{
    if (expanding_ || loadFactor() < expandLoadFactor)
        return;
    if (primary_.size() >= (std::size_t(1) << 30))
        return;

    old_.swap(primary_);
    primary_.assign(old_.size() * 2, nullptr);
    expanding_ = true;
    migrateBucket_ = 0;
    MERCURY_ENSURES(primary_.size() == old_.size() * 2,
                    "expansion must exactly double the table");
}

void
HashTable::migrateStep(unsigned buckets)
{
    if (!expanding_)
        return;

    MERCURY_ASSERT(migrateBucket_ <= old_.size(),
                   "migration cursor past the old table");
    for (unsigned step = 0;
         step < buckets && migrateBucket_ < old_.size(); ++step) {
        Item *it = old_[migrateBucket_];
        old_[migrateBucket_] = nullptr;
        while (it) {
            Item *next = it->hNext;
            const std::uint64_t hash = hashKey(it->key());
            Item **bucket = &primary_[hash & (primary_.size() - 1)];
            it->hNext = *bucket;
            *bucket = it;
            it = next;
        }
        ++migrateBucket_;
    }

    if (migrateBucket_ >= old_.size()) {
        old_.clear();
        old_.shrink_to_fit();
        expanding_ = false;
        migrateBucket_ = 0;
        MERCURY_ASSERT_SLOW(checkIntegrity(),
                            "hash table corrupt after finishing "
                            "incremental migration");
    }
}

bool
HashTable::checkIntegrity() const
{
    if (expanding_) {
        if (old_.empty() || primary_.size() != old_.size() * 2)
            return false;
        if (migrateBucket_ > old_.size())
            return false;
    } else {
        if (!old_.empty() || migrateBucket_ != 0)
            return false;
    }

    // Count linked items, bounding each chain walk so a cycle cannot
    // hang the audit.
    std::size_t linked = 0;
    auto walk = [this, &linked](const Buckets &table) {
        for (const auto &head : table) {
            std::size_t chain = 0;
            for (Item *it = head; it; it = it->hNext) {
                if (++chain > size() + 1)
                    return false;
                ++linked;
            }
        }
        return true;
    };
    if (!walk(primary_) || !walk(old_))
        return false;
    return linked == size();
}

void
HashTable::validate() const
{
    MERCURY_ASSERT(checkIntegrity(),
                   "hash table structural audit failed: size=", size(),
                   " buckets=", primary_.size(),
                   " expanding=", expanding_);
}

} // namespace mercury::kvstore
