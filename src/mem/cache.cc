#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace mercury::mem
{

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params)
{
    mercury_assert(params_.lineBytes > 0 &&
                   std::has_single_bit(params_.lineBytes),
                   "cache line size must be a power of two");
    mercury_assert(params_.assoc > 0, "cache needs associativity >= 1");
    mercury_assert(params_.sizeBytes %
                   (params_.lineBytes * params_.assoc) == 0,
                   "cache size must be a whole number of sets");

    numSets_ = static_cast<unsigned>(
        params_.sizeBytes / (params_.lineBytes * params_.assoc));
    mercury_assert(std::has_single_bit(numSets_),
                   "cache set count must be a power of two");
    lineShift_ = static_cast<unsigned>(
        std::countr_zero(params_.lineBytes));
    setShift_ = static_cast<unsigned>(std::countr_zero(numSets_));
    setMask_ = numSets_ - 1;
    lines_.resize(static_cast<std::size_t>(numSets_) * params_.assoc);
}

std::uint64_t
SetAssocCache::lineAddr(Addr addr) const
{
    return addr >> lineShift_;
}

std::uint64_t
SetAssocCache::setIndex(Addr addr) const
{
    return lineAddr(addr) & setMask_;
}

std::uint64_t
SetAssocCache::tagOf(Addr addr) const
{
    return lineAddr(addr) >> setShift_;
}

SetAssocCache::Line *
SetAssocCache::findLine(Addr addr)
{
    const std::uint64_t tag = tagOf(addr);
    Line *set = &lines_[setIndex(addr) * params_.assoc];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (set[way].valid && set[way].tag == tag)
            return &set[way];
    }
    return nullptr;
}

const SetAssocCache::Line *
SetAssocCache::findLine(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->findLine(addr);
}

bool
SetAssocCache::lookup(Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        return false;
    line->lruStamp = nextStamp_++;
    return true;
}

bool
SetAssocCache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

std::optional<Victim>
SetAssocCache::insert(Addr addr, bool dirty)
{
    const std::uint64_t set_index = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    Line *set = &lines_[set_index * params_.assoc];

    // One pass: refresh a hit, else remember the first invalid way
    // and the least recently used valid way.
    Line *invalid = nullptr;
    Line *lru = nullptr;
    for (unsigned way = 0; way < params_.assoc; ++way) {
        Line &line = set[way];
        if (!line.valid) {
            if (!invalid)
                invalid = &line;
        } else if (line.tag == tag) {
            line.lruStamp = nextStamp_++;
            line.dirty = line.dirty || dirty;
            return std::nullopt;
        } else if (!lru || line.lruStamp < lru->lruStamp) {
            lru = &line;
        }
    }

    // Prefer an invalid way; otherwise evict true-LRU.
    Line *victim_line = invalid ? invalid : lru;
    std::optional<Victim> victim;
    if (victim_line->valid) {
        const std::uint64_t victim_line_number =
            (victim_line->tag << setShift_) | set_index;
        victim = Victim{victim_line_number << lineShift_,
                        victim_line->dirty};
    }

    victim_line->valid = true;
    victim_line->dirty = dirty;
    victim_line->tag = tag;
    victim_line->lruStamp = nextStamp_++;
    return victim;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        return false;
    line->dirty = true;
    return true;
}

void
SetAssocCache::invalidate(Addr addr)
{
    Line *line = findLine(addr);
    if (line)
        line->valid = false;
}

void
SetAssocCache::flush()
{
    for (auto &line : lines_)
        line.valid = false;
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               MemDevice *memory,
                               stats::StatGroup *parent)
    : SimObject(params.name), params_(params), memory_(memory),
      l1i_(params.l1i), l1d_(params.l1d),
      statGroup_(params.name, parent),
      l1iHits_(&statGroup_, "l1iHits", "L1I hits"),
      l1iMisses_(&statGroup_, "l1iMisses", "L1I misses"),
      l1dHits_(&statGroup_, "l1dHits", "L1D hits"),
      l1dMisses_(&statGroup_, "l1dMisses", "L1D misses"),
      l2Hits_(&statGroup_, "l2Hits", "L2 hits"),
      l2Misses_(&statGroup_, "l2Misses", "L2 misses"),
      writebacks_(&statGroup_, "writebacks", "dirty lines written back"),
      memAccesses_(&statGroup_, "memAccesses",
                   "demand accesses reaching memory")
{
    mercury_assert(memory_ != nullptr, "hierarchy needs a memory device");
    if (params_.hasL2)
        l2_.emplace(params_.l2);
}

AccessResult
CacheHierarchy::fillFromBelow(Addr line_addr, bool store, Tick now)
{
    const unsigned line_bytes = params_.l1d.lineBytes;

    if (l2_) {
        const Tick after_l2 = now + params_.l2.hitLatency;
        if (l2_->lookup(line_addr)) {
            ++l2Hits_;
            if (store)
                l2_->markDirty(line_addr);
            return {after_l2, ServicedBy::L2};
        }
        ++l2Misses_;
        ++memAccesses_;
        const Tick mem_done = memory_->access(AccessType::Read, line_addr,
                                              line_bytes, after_l2);
        auto victim = l2_->insert(line_addr, store);
        if (victim && victim->dirty) {
            ++writebacks_;
            // Off the critical path: occupies the device after the
            // demand fill completes.
            memory_->access(AccessType::Write, victim->lineAddr,
                            line_bytes, mem_done);
        }
        return {mem_done, ServicedBy::Memory};
    }

    ++memAccesses_;
    const Tick mem_done = memory_->access(AccessType::Read, line_addr,
                                          line_bytes, now);
    return {mem_done, ServicedBy::Memory};
}

AccessResult
CacheHierarchy::access(CpuAccessKind kind, Addr addr, Tick now)
{
    SetAssocCache &l1 = kind == CpuAccessKind::IFetch ? l1i_ : l1d_;
    stats::Scalar &hits =
        kind == CpuAccessKind::IFetch ? l1iHits_ : l1dHits_;
    stats::Scalar &misses =
        kind == CpuAccessKind::IFetch ? l1iMisses_ : l1dMisses_;

    const bool store = kind == CpuAccessKind::Store;
    const bool dirtying = store && !params_.writeThroughStores;
    const Tick after_l1 = now + l1.params().hitLatency;

    if (l1.lookup(addr)) {
        ++hits;
        if (dirtying)
            l1.markDirty(addr);
        if (store && params_.writeThroughStores) {
            ++memAccesses_;
            const Tick done = memory_->access(
                AccessType::Write, addr, l1.params().lineBytes,
                after_l1);
            return {done, ServicedBy::Memory};
        }
        return {after_l1, ServicedBy::L1};
    }

    ++misses;
    if (store && params_.writeThroughStores) {
        // No write-allocate in write-through mode: the store goes
        // straight to the device.
        ++memAccesses_;
        const Tick done = memory_->access(AccessType::Write, addr,
                                          l1.params().lineBytes,
                                          after_l1);
        return {done, ServicedBy::Memory};
    }
    AccessResult below = fillFromBelow(addr, store, after_l1);

    auto victim = l1.insert(addr, store);
    if (victim && victim->dirty) {
        ++writebacks_;
        if (l2_) {
            l2_->insert(victim->lineAddr, true);
        } else {
            memory_->access(AccessType::Write, victim->lineAddr,
                            l1.params().lineBytes, below.completion);
        }
    }

    return below;
}

void
CacheHierarchy::flushAll()
{
    l1i_.flush();
    l1d_.flush();
    if (l2_)
        l2_->flush();
}

double
CacheHierarchy::l1iMissRate() const
{
    const double total = l1iHits_.value() + l1iMisses_.value();
    return total > 0.0 ? l1iMisses_.value() / total : 0.0;
}

double
CacheHierarchy::l1dMissRate() const
{
    const double total = l1dHits_.value() + l1dMisses_.value();
    return total > 0.0 ? l1dMisses_.value() / total : 0.0;
}

double
CacheHierarchy::l2MissRate() const
{
    const double total = l2Hits_.value() + l2Misses_.value();
    return total > 0.0 ? l2Misses_.value() / total : 0.0;
}

void
CacheHierarchy::reset()
{
    statGroup_.resetStats();
}

} // namespace mercury::mem
