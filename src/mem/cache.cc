#include "mem/cache.hh"

#include <algorithm>
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

    const std::size_t ways =
        static_cast<std::size_t>(numSets_) * params_.assoc;
    keys_.resize(ways);
    stamps_.resize(ways);
    dirty_.resize(ways);
}

bool
SetAssocCache::lookup(Addr addr)
{
    const Probe p = probe(addr);
    if (p.hit)
        touch(p, false);
    return p.hit;
}

std::optional<Victim>
SetAssocCache::insert(Addr addr, bool dirty)
{
    const Probe p = probe(addr);
    if (p.hit) {
        touch(p, dirty);
        return std::nullopt;
    }
    return fill(p, dirty);
}

bool
SetAssocCache::markDirty(Addr addr)
{
    const Probe p = probe(addr);
    if (p.hit)
        dirty_[p.way] = 1;
    return p.hit;
}

void
SetAssocCache::invalidate(Addr addr)
{
    const Probe p = probe(addr);
    if (p.hit) {
        keys_[p.way] = 0;
        stamps_[p.way] = 0;
    }
}

void
SetAssocCache::flush()
{
    std::fill(keys_.begin(), keys_.end(), 0);
    std::fill(stamps_.begin(), stamps_.end(), 0);
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

Tick
CacheHierarchy::fetchPass(Addr addr, std::uint64_t lines,
                          std::uint64_t stride, Tick cursor, Tick issue,
                          std::uint64_t per_line, std::uint64_t extra,
                          Tick per_line_ticks, Tick extra_ticks,
                          Tick *compute_ticks, Counter *instructions)
{
    // access(IFetch) per line, with every loop-carried value in a
    // local. Nothing below the L1 reads the L1I and memory-access
    // counters mid-pass, and they are integers far below 2^53, so
    // adding them once per pass is exact.
    const Tick hit_latency = params_.l1i.hitLatency;
    const unsigned line_bytes = params_.l1d.lineBytes;
    const bool has_l2 = l2_.has_value();
    Tick compute = *compute_ticks;
    Counter instr = *instructions;
    std::uint64_t fetched = 0;
    std::uint64_t hits = 0;
    l1i_.readLines(addr, lines, stride, [&](bool hit, Addr line_addr) {
        cursor += issue;
        compute += issue;
        if (hit) {
            ++hits;
            cursor += hit_latency;
            compute += hit_latency;
        } else if (has_l2) {
            cursor = fillFromBelow(line_addr, false, cursor + hit_latency)
                         .completion;
        } else {
            cursor = memory_->access(AccessType::Read, line_addr,
                                     line_bytes, cursor + hit_latency);
        }
        // per_line_ticks is the time of per_line instructions, so a
        // line whose share is zero adds nothing.
        const bool more = fetched++ < extra;
        cursor += more ? extra_ticks : per_line_ticks;
        compute += more ? extra_ticks : per_line_ticks;
        instr += per_line + (more ? 1 : 0);
    });

    l1iHits_ += static_cast<double>(hits);
    l1iMisses_ += static_cast<double>(lines - hits);
    if (!has_l2)
        memAccesses_ += static_cast<double>(lines - hits);
    *compute_ticks = compute;
    *instructions = instr;
    return cursor;
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
