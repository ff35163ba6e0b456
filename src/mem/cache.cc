#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <typeinfo>

#include "mem/dram.hh"
#include "sim/contract.hh"

namespace mercury::mem
{

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params)
{
    MERCURY_EXPECTS(params_.lineBytes > 0 &&
                    std::has_single_bit(params_.lineBytes),
                    "cache line size must be a power of two");
    MERCURY_EXPECTS(params_.assoc > 0, "cache needs associativity >= 1");
    MERCURY_EXPECTS(params_.sizeBytes %
                    (params_.lineBytes * params_.assoc) == 0,
                    "cache size must be a whole number of sets");

    numSets_ = static_cast<unsigned>(
        params_.sizeBytes / (params_.lineBytes * params_.assoc));
    MERCURY_EXPECTS(std::has_single_bit(numSets_),
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

void
SetAssocCache::restore(const std::uint32_t *keys)
{
    // Way w of each set gets rank w: invalid ways stamp 0, valid
    // ones stamps above every stamp handed out so far.
    const unsigned assoc = params_.assoc;
    const std::uint64_t base = nextStamp_;
    for (std::size_t first = 0; first < keys_.size(); first += assoc) {
        for (unsigned w = 0; w < assoc; ++w) {
            const std::uint64_t key = keys[first + w];
            MERCURY_ASSERT(dirty_[first + w] == 0,
                           "read-only cache holds a dirty line");
            keys_[first + w] = key;
            stamps_[first + w] = key ? base + w : 0;
        }
    }
    nextStamp_ = base + assoc;
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

void
SetAssocCache::flush()
{
    std::fill(keys_.begin(), keys_.end(), 0);
    std::fill(stamps_.begin(), stamps_.end(), 0);
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               MemDevice *memory,
                               stats::StatGroup *parent,
                               FetchMemo *fetch_memo)
    : params_(params), memory_(memory),
      l1i_(params.l1i), l1d_(params.l1d), fetchMemo_(fetch_memo),
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
    MERCURY_EXPECTS(memory_ != nullptr, "hierarchy needs a memory device");
    if (params_.hasL2)
        l2_.emplace(params_.l2);
    if (fetchMemo_)
        fetchMemo_->attach(l1i_);
    // Exact type: a subclass (a sampling wrapper, a test double) may
    // time its calls differently, so it keeps the per-call replay.
    if (!params_.hasL2 && params_.l1d.lineBytes == 64 &&
        typeid(*memory_) == typeid(DramModel)) {
        auto *dram = static_cast<DramModel *>(memory_);
        if (dram->fixedLatencyReads())
            serialDram_ = dram;
    }
}

namespace
{

/** Compute time of lines [@p first, @p end) of a pass whose first
 * @p extra lines run one instruction more than the rest. */
Tick
lineTicks(std::uint64_t first, std::uint64_t end, std::uint64_t extra,
          Tick per_line_ticks, Tick extra_ticks)
{
    const std::uint64_t longer =
        std::min(extra, end) - std::min(extra, first);
    return longer * extra_ticks + (end - first - longer) * per_line_ticks;
}

/** Index of the last set bit of the @p lines-bit mask @p mask,
 * which has one. */
std::uint64_t
lastMiss(const std::uint64_t *mask, std::uint64_t lines)
{
    std::uint64_t word = (lines - 1) / 64;
    while (mask[word] == 0)
        --word;
    return word * 64 + 63 -
           static_cast<unsigned>(std::countl_zero(mask[word]));
}

} // anonymous namespace

Tick
CacheHierarchy::fetchBelow(Addr line_addr, Tick now)
{
    if (l2_)
        return fillFromBelow(line_addr, false, now).completion;
    return memory_->access(AccessType::Read, line_addr,
                           params_.l1d.lineBytes, now);
}

void
CacheHierarchy::leaveFetchMemo()
{
    if (l1iStale_)
        fetchMemo_->restore(memoState_, l1i_);
    l1iStale_ = false;
    memoState_ = FetchMemo::none;
}

Tick
CacheHierarchy::replayPass(const FetchMemo::Transition &pass, Tick cursor,
                           Tick issue, std::uint64_t extra,
                           Tick per_line_ticks, Tick extra_ticks)
{
    // Each line issues, then hits (hit_latency) or waits for its
    // fetch, then runs its share; only the misses need a step each.
    const Tick hit_latency = params_.l1i.hitLatency;
    const Tick hit_step = issue + hit_latency;
    const std::uint64_t *mask = fetchMemo_->missMask(pass);
    const Addr last_line = pass.addr + (pass.lines - 1) * pass.stride;
    DramModel *const dram =
        serialDram_ && serialDram_->oneBank(pass.addr, last_line)
            ? serialDram_
            : nullptr;
    std::uint64_t next = 0;
    std::uint64_t fetched = 0;
    for (std::uint64_t word = 0; word * 64 < pass.lines; ++word) {
        for (std::uint64_t bits = mask[word]; bits; bits &= bits - 1) {
            const std::uint64_t miss =
                word * 64 + static_cast<unsigned>(std::countr_zero(bits));
            const Addr line_addr = pass.addr + miss * pass.stride;
            const Tick at = cursor + (miss - next + 1) * hit_step +
                            lineTicks(next, miss, extra, per_line_ticks,
                                      extra_ticks);
            if (dram && dram->idleFor(line_addr, at)) {
                // This miss costs lineReadLatency() and completes
                // before the next one issues, so every later miss
                // also finds the bank and port idle and costs the
                // same. The rest of the pass closes in one step; the
                // bank and port keep the last miss's completion.
                const std::uint64_t rest = pass.misses - fetched;
                const Tick miss_ticks = rest * dram->lineReadLatency();
                const std::uint64_t last = lastMiss(mask, pass.lines);
                dram->noteSerialLineReads(
                    line_addr, rest,
                    cursor + (last - next + 1) * hit_step +
                        lineTicks(next, last, extra, per_line_ticks,
                                  extra_ticks) +
                        miss_ticks);
                ++closedReplays_;
                return cursor + (pass.lines - next) * hit_step +
                       lineTicks(next, pass.lines, extra, per_line_ticks,
                                 extra_ticks) +
                       miss_ticks;
            }
            cursor = fetchBelow(line_addr, at) +
                     lineTicks(miss, miss + 1, extra, per_line_ticks,
                               extra_ticks);
            next = miss + 1;
            ++fetched;
        }
    }
    return cursor + (pass.lines - next) * hit_step +
           lineTicks(next, pass.lines, extra, per_line_ticks,
                     extra_ticks);
}

Tick
CacheHierarchy::fetchPass(Addr addr, std::uint64_t lines,
                          std::uint64_t stride, Tick cursor, Tick issue,
                          std::uint64_t per_line, std::uint64_t extra,
                          Tick per_line_ticks, Tick extra_ticks,
                          Tick *compute_ticks, Counter *instructions)
{
    const Tick hit_latency = params_.l1i.hitLatency;

    // The memo may know this pass from the L1I's contents; if not,
    // the walk below records it.
    const FetchMemo::Transition *known = nullptr;
    std::uint32_t from = FetchMemo::none;
    std::uint64_t *miss_mask = nullptr;
    if (fetchMemo_) {
        if (memoState_ == FetchMemo::none)
            memoState_ = fetchMemo_->identify(l1i_);
        if (memoState_ != FetchMemo::none) {
            known = fetchMemo_->find(memoState_, addr, lines, stride);
            if (!known) {
                // Walk from the real contents; record() puts the
                // hierarchy back in the memo.
                from = memoState_;
                leaveFetchMemo();
                miss_mask = fetchMemo_->beginRecord(lines);
            }
        }
    }

    std::uint64_t hits = 0;
    if (known) {
        cursor = replayPass(*known, cursor, issue, extra, per_line_ticks,
                            extra_ticks);
        hits = lines - known->misses;
        memoState_ = known->to;
        l1iStale_ = true;
        ++replayedPasses_;
    } else {
        // access(IFetch) per line, with every loop-carried value in
        // a local.
        std::uint64_t fetched = 0;
        l1i_.readLines(addr, lines, stride,
                       [&](bool hit, Addr line_addr) {
            cursor += issue;
            if (hit) {
                ++hits;
                cursor += hit_latency;
            } else {
                if (miss_mask)
                    miss_mask[fetched / 64] |= std::uint64_t{1}
                                               << (fetched % 64);
                cursor = fetchBelow(line_addr, cursor + hit_latency);
            }
            // per_line_ticks is the time of per_line instructions,
            // so a line whose share is zero adds nothing.
            cursor += fetched++ < extra ? extra_ticks : per_line_ticks;
        });
        if (from != FetchMemo::none) {
            memoState_ = fetchMemo_->record(from, addr, lines, stride,
                                            l1i_, miss_mask,
                                            lines - hits);
        }
    }

    // Issue and hit time count as compute, as does every line's
    // share. Nothing below the L1 reads the L1I and memory-access
    // counters mid-pass, and they are integers far below 2^53, so
    // adding them once per pass is exact.
    *compute_ticks += lines * issue + hits * hit_latency +
                      lineTicks(0, lines, extra, per_line_ticks,
                                extra_ticks);
    *instructions += lines * per_line + std::min(extra, lines);
    l1iHits_ += static_cast<double>(hits);
    l1iMisses_ += static_cast<double>(lines - hits);
    if (!l2_)
        memAccesses_ += static_cast<double>(lines - hits);
    return cursor;
}

void
CacheHierarchy::flushAll()
{
    // The flush rewrites every L1I way, so no stale state survives.
    l1iStale_ = false;
    memoState_ = FetchMemo::none;
    l1i_.flush();
    l1d_.flush();
    if (l2_)
        l2_->flush();
}

} // namespace mercury::mem
