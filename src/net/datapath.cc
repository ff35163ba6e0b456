#include "net/datapath.hh"

#include "sim/contract.hh"

namespace mercury::net
{

NicGetCache::NicGetCache(const DatapathParams &params,
                         stats::StatGroup *parent,
                         const std::string &name)
    : params_(params),
      group_(name, parent),
      hits_(&group_, "hits", "GETs answered from the NIC cache"),
      misses_(&group_, "misses", "GET lookups that went to the core"),
      fills_(&group_, "fills", "entries inserted or refreshed"),
      evictions_(&group_, "evictions", "LRU evictions"),
      invalidations_(&group_, "invalidations",
                     "entries dropped by SET/DELETE"),
      hitRate_(&group_, "hitRate", "NIC-cache hit fraction",
               [this] {
                   const std::uint64_t total =
                       hits_.value() + misses_.value();
                   return total ? static_cast<double>(hits_.value()) /
                                      static_cast<double>(total)
                                : 0.0;
               })
{
    MERCURY_EXPECTS(params_.nicCacheEntries > 0,
                    "NicGetCache needs a non-zero capacity");
}

void
NicGetCache::erase(LruList::iterator it)
{
    index_.erase(it->key);
    lru_.erase(it);
}

std::optional<std::string_view>
NicGetCache::lookup(std::string_view key)
{
    const auto idx = index_.find(key);
    if (idx == index_.end()) {
        ++misses_;
        return std::nullopt;
    }
    LruList::iterator it = idx->second;
    lru_.splice(lru_.begin(), lru_, it);
    ++hits_;
    return std::string_view(it->value);
}

void
NicGetCache::fill(std::string_view key, std::string_view value)
{
    if (value.size() > params_.nicCacheMaxValueBytes)
        return;

    const auto idx = index_.find(key);
    if (idx != index_.end()) {
        LruList::iterator it = idx->second;
        it->value.assign(value);
        lru_.splice(lru_.begin(), lru_, it);
        ++fills_;
        return;
    }

    lru_.push_front(Entry{std::string(key), std::string(value)});
    index_.emplace(lru_.front().key, lru_.begin());
    ++fills_;

    while (index_.size() > params_.nicCacheEntries) {
        ++evictions_;
        erase(std::prev(lru_.end()));
    }
    MERCURY_ENSURES(index_.size() == lru_.size(),
                    "NIC cache index out of sync with LRU list");
}

void
NicGetCache::invalidate(std::string_view key)
{
    const auto idx = index_.find(key);
    if (idx == index_.end())
        return;
    ++invalidations_;
    erase(idx->second);
}

} // namespace mercury::net
