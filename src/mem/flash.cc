#include "mem/flash.hh"

#include <algorithm>

#include "sim/contract.hh"

namespace mercury::mem
{

Ftl::Ftl(std::uint64_t phys_pages, unsigned pages_per_block,
         double overprovision, unsigned gc_low_water,
         unsigned wear_threshold)
    : physPages_(phys_pages), pagesPerBlock_(pages_per_block),
      gcLowWater_(gc_low_water), wearThreshold_(wear_threshold)
{
    MERCURY_EXPECTS(pagesPerBlock_ > 0,
                    "pagesPerBlock must be positive");
    // Per-block valid counts and pickGcVictim's running minimum are
    // 16-bit: a larger block would wrap them and starve GC.
    MERCURY_EXPECTS(pagesPerBlock_ <= UINT16_MAX,
                    "pagesPerBlock exceeds the 16-bit valid count: ",
                    pagesPerBlock_);
    MERCURY_EXPECTS(physPages_ >= pagesPerBlock_ * (gcLowWater_ + 2),
                    "flash channel too small for GC headroom");
    MERCURY_EXPECTS(overprovision > 0.0 && overprovision < 1.0,
                    "overprovision must be in (0,1)");

    numBlocks_ = physPages_ / pagesPerBlock_;
    physPages_ = numBlocks_ * pagesPerBlock_;

    logicalPages_ = static_cast<std::uint64_t>(
        static_cast<double>(physPages_) * (1.0 - overprovision));
    // Keep at least gcLowWater_+2 blocks of hard slack.
    const std::uint64_t max_logical =
        physPages_ - pagesPerBlock_ * (gcLowWater_ + 2);
    logicalPages_ = std::min(logicalPages_, max_logical);

    map_ = DemandTable(logicalPages_);
    reverse_ = DemandTable(physPages_);
    validCount_.assign(numBlocks_, 0);
    eraseCount_.assign(numBlocks_, 0);
    blockFree_.assign(numBlocks_, true);
    blockRetired_.assign(numBlocks_, false);
    pendingRetire_.assign(numBlocks_, false);
    for (std::uint64_t b = 0; b < numBlocks_; ++b)
        freeBlocks_.push_back(b);

    const std::uint64_t logical_blocks =
        (logicalPages_ + pagesPerBlock_ - 1) / pagesPerBlock_;
    minLiveBlocks_ = logical_blocks + gcLowWater_ + 2;
}

void
Ftl::setFaultInjection(fault::FaultInjector *injector,
                       double program_fail_probability,
                       double erase_fail_probability,
                       std::string target)
{
    faults_ = injector;
    programFailP_ = program_fail_probability;
    eraseFailP_ = erase_fail_probability;
    faultTarget_ = std::move(target);
}

bool
Ftl::canRetire() const
{
    return numBlocks_ - retiredBlocks_ > minLiveBlocks_;
}

double
Ftl::capacityLossFraction() const
{
    return static_cast<double>(retiredBlocks_) /
           static_cast<double>(numBlocks_);
}

std::uint64_t
Ftl::spareBlocksRemaining() const
{
    const std::uint64_t live = numBlocks_ - retiredBlocks_;
    return live > minLiveBlocks_ ? live - minLiveBlocks_ : 0;
}

bool
Ftl::isMapped(std::uint64_t lpn) const
{
    MERCURY_EXPECTS(lpn < logicalPages_, "lpn out of range: ", lpn);
    return map_.get(lpn) != unmapped;
}

std::int64_t
Ftl::pickGcVictim() const
{
    std::int64_t best = unmapped;
    std::uint16_t best_valid = pagesPerBlock_;
    for (std::uint64_t b = 0; b < numBlocks_; ++b) {
        if (blockFree_[b] || blockRetired_[b] ||
            static_cast<std::int64_t>(b) == activeBlock_)
            continue;
        if (validCount_[b] < best_valid) {
            best_valid = validCount_[b];
            best = static_cast<std::int64_t>(b);
        }
    }
    // A fully-valid victim frees nothing; report "no candidate".
    if (best != unmapped && best_valid >= pagesPerBlock_)
        return unmapped;
    return best;
}

void
Ftl::eraseBlock(std::uint64_t block, FtlWriteOutcome &outcome,
                Tick now)
{
    MERCURY_EXPECTS(block < numBlocks_, "erase of bad block ", block);
    MERCURY_EXPECTS(!blockFree_[block],
                    "erase of block already in the free pool");
    MERCURY_EXPECTS(!blockRetired_[block],
                    "erase of retired block ", block);
    MERCURY_EXPECTS(validCount_[block] == 0,
                    "erasing block with valid pages");

    // Grown-bad-block path: a block that failed a program earlier, or
    // fails this erase, is retired instead of reused -- unless the
    // spare headroom is gone, in which case the FTL (like an SSD near
    // end of life) keeps limping on the block rather than dying.
    if (faults_ != nullptr && canRetire() &&
        (pendingRetire_[block] || faults_->roll(eraseFailP_))) {
        pendingRetire_[block] = false;
        blockRetired_[block] = true;
        ++retiredBlocks_;
        ++outcome.retiredBlocks;
        faults_->record(now, fault::FaultKind::FlashBadBlock,
                        faultTarget_, block);
        return;
    }
    pendingRetire_[block] = false;
    blockFree_[block] = true;
    freeBlocks_.push_back(block);
    ++eraseCount_[block];
    ++totalErases_;
    ++outcome.erases;
}

void
Ftl::reclaimBlock(std::uint64_t block, FtlWriteOutcome &outcome,
                  Tick now)
{
    // Relocate every valid page into the active write stream.
    for (unsigned i = 0; i < pagesPerBlock_; ++i) {
        const std::uint64_t ppn = block * pagesPerBlock_ + i;
        const std::int64_t lpn = reverse_.get(ppn);
        if (lpn == unmapped)
            continue;

        // Raw allocation: GC must never recurse into GC.
        if (activeBlock_ == unmapped ||
            nextPageInActive_ == pagesPerBlock_) {
            MERCURY_ASSERT(!freeBlocks_.empty(),
                           "GC exhausted free blocks (overprovision "
                           "headroom violated)");
            activeBlock_ =
                static_cast<std::int64_t>(freeBlocks_.front());
            freeBlocks_.pop_front();
            blockFree_[static_cast<std::uint64_t>(activeBlock_)] = false;
            nextPageInActive_ = 0;
        }
        const std::uint64_t new_ppn =
            static_cast<std::uint64_t>(activeBlock_) * pagesPerBlock_ +
            nextPageInActive_++;

        MERCURY_ASSERT(validCount_[block] > 0,
                       "GC accounting underflow on block ", block);
        MERCURY_ASSERT(reverse_.get(new_ppn) == unmapped,
                       "GC relocation target page already mapped");
        reverse_.set(ppn, unmapped);
        --validCount_[block];
        map_.set(static_cast<std::uint64_t>(lpn),
                 static_cast<std::int64_t>(new_ppn));
        reverse_.set(new_ppn, lpn);
        ++validCount_[blockOf(new_ppn)];

        ++totalMoves_;
        ++flashWrites_;
        ++outcome.movedPages;
    }
    MERCURY_ENSURES(validCount_[block] == 0,
                    "GC reclaim left valid pages behind in block ",
                    block);
    eraseBlock(block, outcome, now);
    // No full checkConsistency() here: reclaim runs nested inside
    // write(), which invalidates the overwritten page's reverse
    // mapping before allocating, so the map/reverse audit only holds
    // at the write() API boundary.
}

void
Ftl::maybeWearLevel(FtlWriteOutcome &outcome, Tick now)
{
    // Static wear leveling: when the erase-count spread grows too
    // large, park the coldest data in the most-worn free block. The
    // worn block then holds rarely-rewritten data and stops cycling,
    // while the freed cold block joins the hot rotation.
    std::int64_t hot = unmapped;
    std::uint32_t hot_erases = 0;
    for (std::uint64_t b = 0; b < numBlocks_; ++b) {
        if (!blockFree_[b])
            continue;
        if (hot == unmapped || eraseCount_[b] > hot_erases) {
            hot_erases = eraseCount_[b];
            hot = static_cast<std::int64_t>(b);
        }
    }

    std::int64_t cold = unmapped;
    std::uint32_t cold_erases = ~0u;
    for (std::uint64_t b = 0; b < numBlocks_; ++b) {
        if (blockFree_[b] || static_cast<std::int64_t>(b) == activeBlock_)
            continue;
        if (validCount_[b] == 0)
            continue;
        if (eraseCount_[b] < cold_erases) {
            cold_erases = eraseCount_[b];
            cold = static_cast<std::int64_t>(b);
        }
    }

    if (hot == unmapped || cold == unmapped)
        return;
    if (hot_erases - cold_erases <= wearThreshold_)
        return;

    // Take the hot block out of the free pool and fill it with the
    // cold block's valid pages.
    auto it = std::find(freeBlocks_.begin(), freeBlocks_.end(),
                        static_cast<std::uint64_t>(hot));
    MERCURY_ASSERT(it != freeBlocks_.end(), "free list out of sync");
    freeBlocks_.erase(it);
    blockFree_[static_cast<std::uint64_t>(hot)] = false;

    unsigned next_page = 0;
    const auto cold_block = static_cast<std::uint64_t>(cold);
    for (unsigned i = 0; i < pagesPerBlock_; ++i) {
        const std::uint64_t ppn = cold_block * pagesPerBlock_ + i;
        const std::int64_t lpn = reverse_.get(ppn);
        if (lpn == unmapped)
            continue;
        const std::uint64_t new_ppn =
            static_cast<std::uint64_t>(hot) * pagesPerBlock_ +
            next_page++;
        MERCURY_ASSERT(validCount_[cold_block] > 0,
                       "wear-level accounting underflow on block ",
                       cold_block);
        MERCURY_ASSERT(reverse_.get(new_ppn) == unmapped,
                       "wear-level target page already mapped");
        reverse_.set(ppn, unmapped);
        --validCount_[cold_block];
        map_.set(static_cast<std::uint64_t>(lpn),
                 static_cast<std::int64_t>(new_ppn));
        reverse_.set(new_ppn, lpn);
        ++validCount_[static_cast<std::uint64_t>(hot)];
        ++totalMoves_;
        ++flashWrites_;
        ++outcome.movedPages;
    }
    eraseBlock(cold_block, outcome, now);
    // Full audit deferred to the write() boundary; see
    // reclaimBlock().
}

std::uint64_t
Ftl::allocPage(FtlWriteOutcome &outcome, Tick now)
{
    // Wear leveling can consume the freshly opened block, so loop
    // until the active block really has a free page. A program
    // failure burns the candidate page (it stays unused forever),
    // marks the block for retirement at its next erase, and retries
    // on the next page; the per-call failure budget keeps even a
    // pathological probability from looping without progress.
    while (true) {
        while (activeBlock_ == unmapped ||
               nextPageInActive_ == pagesPerBlock_) {
            while (freeBlocks_.size() <= gcLowWater_) {
                const std::int64_t victim = pickGcVictim();
                if (victim == unmapped)
                    break;
                reclaimBlock(static_cast<std::uint64_t>(victim),
                             outcome, now);
            }
            MERCURY_ASSERT(!freeBlocks_.empty(),
                           "flash channel out of space");
            activeBlock_ =
                static_cast<std::int64_t>(freeBlocks_.front());
            freeBlocks_.pop_front();
            blockFree_[static_cast<std::uint64_t>(activeBlock_)] =
                false;
            nextPageInActive_ = 0;
            maybeWearLevel(outcome, now);
        }
        if (faults_ != nullptr &&
            outcome.programFailures < pagesPerBlock_ &&
            faults_->roll(programFailP_)) {
            const auto block =
                static_cast<std::uint64_t>(activeBlock_);
            pendingRetire_[block] = true;
            ++programFailures_;
            ++outcome.programFailures;
            faults_->record(now, fault::FaultKind::FlashProgramFail,
                            faultTarget_,
                            block * pagesPerBlock_ +
                                nextPageInActive_);
            ++nextPageInActive_;  // burn the page, try the next
            continue;
        }
        break;
    }
    MERCURY_ENSURES(nextPageInActive_ < pagesPerBlock_,
                    "active flash block write cursor out of range");
    MERCURY_ENSURES(!blockFree_[static_cast<std::uint64_t>(
                        activeBlock_)],
                    "active flash block is marked free");
    return static_cast<std::uint64_t>(activeBlock_) * pagesPerBlock_ +
           nextPageInActive_++;
}

FtlWriteOutcome
Ftl::write(std::uint64_t lpn, Tick now)
{
    MERCURY_EXPECTS(lpn < logicalPages_,
                    "write to lpn out of range: ", lpn);

    FtlWriteOutcome outcome{};
    if (const std::int64_t mapped = map_.get(lpn); mapped != unmapped) {
        const auto old = static_cast<std::uint64_t>(mapped);
        MERCURY_ASSERT(validCount_[blockOf(old)] > 0,
                       "overwrite accounting underflow on block ",
                       blockOf(old));
        reverse_.set(old, unmapped);
        --validCount_[blockOf(old)];
    }

    const std::uint64_t ppn = allocPage(outcome, now);
    map_.set(lpn, static_cast<std::int64_t>(ppn));
    reverse_.set(ppn, static_cast<std::int64_t>(lpn));
    ++validCount_[blockOf(ppn)];

    ++hostWrites_;
    ++flashWrites_;
    outcome.physicalPage = ppn;
    MERCURY_ASSERT_SLOW(auditIfDue(),
                        "FTL map/reverse/valid-count accounting "
                        "inconsistent after write of lpn ", lpn);
    return outcome;
}

double
Ftl::writeAmplification() const
{
    if (hostWrites_ == 0)
        return 1.0;
    return static_cast<double>(flashWrites_) /
           static_cast<double>(hostWrites_);
}

unsigned
Ftl::eraseSpread() const
{
    const auto [lo, hi] =
        std::minmax_element(eraseCount_.begin(), eraseCount_.end());
    return *hi - *lo;
}

bool
Ftl::auditIfDue() const
{
    // Full audit per mutation is fine up to ~64 Ki pages; beyond
    // that, sample every 1024 mutations so asan/debug runs on the
    // 19.8 GB stack channels stay tractable.
    constexpr std::uint64_t small_ftl_pages = 64 * 1024;
    constexpr std::uint64_t sample_interval = 1024;
    if (physPages_ > small_ftl_pages &&
        ++mutationsSinceAudit_ < sample_interval) {
        return true;
    }
    mutationsSinceAudit_ = 0;
    return checkConsistency();
}

bool
Ftl::checkConsistency() const
{
    // Only written chunks of the map can hold a mapping.
    std::vector<std::uint16_t> counts(numBlocks_, 0);
    const bool reversible =
        map_.allAllocated([&](std::uint64_t lpn, std::int64_t ppn) {
            if (ppn == unmapped)
                return true;
            const auto page = static_cast<std::uint64_t>(ppn);
            ++counts[blockOf(page)];
            return reverse_.get(page) == static_cast<std::int64_t>(lpn);
        });
    if (!reversible)
        return false;
    for (std::uint64_t b = 0; b < numBlocks_; ++b) {
        if (counts[b] != validCount_[b])
            return false;
        if (blockFree_[b] && validCount_[b] != 0)
            return false;
        // Retired blocks hold no data and never rejoin the pool.
        if (blockRetired_[b] &&
            (blockFree_[b] || validCount_[b] != 0))
            return false;
    }
    std::uint64_t retired = 0;
    for (std::uint64_t b = 0; b < numBlocks_; ++b)
        retired += blockRetired_[b] ? 1 : 0;
    if (retired != retiredBlocks_)
        return false;
    for (const std::uint64_t b : freeBlocks_) {
        if (blockRetired_[b])
            return false;
    }
    return true;
}

FlashController::Channel::Channel(const FlashParams &params)
    : ftl(params.capacity / params.numChannels / params.pageBytes,
          params.pagesPerBlock, params.overprovision,
          params.gcLowWaterBlocks, params.wearLevelThreshold)
{}

FlashController::FlashController(const FlashParams &params,
                                 stats::StatGroup *parent)
    : params_(params),
      statGroup_(params.name, parent),
      lineReads_(&statGroup_, "lineReads", "line-granularity reads"),
      lineWrites_(&statGroup_, "lineWrites", "line-granularity writes"),
      pageSenses_(&statGroup_, "pageSenses", "page array senses"),
      pagePrograms_(&statGroup_, "pagePrograms", "page programs"),
      registerHits_(&statGroup_, "registerHits", "page-register hits"),
      gcMoves_(&statGroup_, "gcMoves", "pages moved by GC/wear level"),
      erases_(&statGroup_, "erases", "block erases"),
      programFailures_(&statGroup_, "programFailures",
                       "page programs that failed"),
      badBlocks_(&statGroup_, "badBlocks",
                 "blocks retired as grown-bad")
{
    MERCURY_EXPECTS(params_.numChannels > 0, "flash needs channels");
    channels_.reserve(params_.numChannels);
    for (unsigned c = 0; c < params_.numChannels; ++c)
        channels_.emplace_back(params_);
    channelBytes_ =
        channels_.front().ftl.logicalPages() * params_.pageBytes;
}

unsigned
FlashController::channelIndex(Addr addr) const
{
    return static_cast<unsigned>((addr / channelBytes_) %
                                 params_.numChannels);
}

std::uint64_t
FlashController::channelOffset(Addr addr) const
{
    return addr % channelBytes_;
}

Tick
FlashController::transferTime(unsigned size) const
{
    const double seconds =
        static_cast<double>(size) / params_.channelBandwidth;
    return std::max<Tick>(1, secondsToTicks(seconds));
}

int
FlashController::findWriteSlot(const Channel &channel,
                               std::uint64_t lpn) const
{
    for (std::size_t i = 0; i < channel.writeSlots.size(); ++i) {
        if (channel.writeSlots[i].lpn == lpn)
            return static_cast<int>(i);
    }
    return -1;
}

Tick
FlashController::flushSlot(Channel &channel, std::size_t slot,
                           Tick now)
{
    const std::uint64_t lpn = channel.writeSlots[slot].lpn;
    const FtlWriteOutcome outcome = channel.ftl.write(lpn, now);

    Tick cost = params_.programLatency;
    cost += outcome.movedPages *
            (params_.readLatency + params_.programLatency);
    cost += outcome.erases * params_.eraseLatency;
    // Failed programs and failed (retiring) erases still occupy the
    // die for the attempt before the controller moves on.
    cost += outcome.programFailures * params_.programLatency;
    cost += outcome.retiredBlocks * params_.eraseLatency;

    ++pagePrograms_;
    gcMoves_ += outcome.movedPages;
    erases_ += outcome.erases;
    programFailures_ += outcome.programFailures;
    badBlocks_ += outcome.retiredBlocks;

    channel.writeSlots.erase(channel.writeSlots.begin() +
                             static_cast<std::ptrdiff_t>(slot));
    return cost;
}

Tick
FlashController::access(AccessType type, Addr addr, unsigned size,
                        Tick now)
{
    MERCURY_EXPECTS(size > 0 && size <= params_.pageBytes,
                    "flash access size must be within one page");
    addr %= capacityBytes();

    Channel &channel = channels_[channelIndex(addr)];
    const std::uint64_t lpn = channelOffset(addr) / params_.pageBytes;

    const Tick start = std::max(now, channel.busyUntil);
    Tick t = start;

    if (type == AccessType::Write) {
        ++lineWrites_;
        const int slot = findWriteSlot(channel, lpn);
        if (slot >= 0) {
            ++registerHits_;
            channel.writeSlots[static_cast<std::size_t>(slot)]
                .lastUse = ++channel.useCounter;
        } else {
            if (channel.writeSlots.size() >=
                params_.writeBufferPages) {
                // Evict the least-recently-used dirty page.
                std::size_t victim = 0;
                for (std::size_t i = 1;
                     i < channel.writeSlots.size(); ++i) {
                    if (channel.writeSlots[i].lastUse <
                        channel.writeSlots[victim].lastUse) {
                        victim = i;
                    }
                }
                t += flushSlot(channel, victim, t);
            }
            channel.writeSlots.push_back(
                WriteSlot{lpn, ++channel.useCounter});
        }
    } else {
        ++lineReads_;
        if (findWriteSlot(channel, lpn) >= 0 ||
            channel.readRegisterLpn ==
                static_cast<std::int64_t>(lpn)) {
            // Served from the write buffer or the read register.
            ++registerHits_;
        } else {
            // Sense the page only if it holds data; reading the
            // erased state costs nothing in the array.
            if (channel.ftl.isMapped(lpn)) {
                t += params_.readLatency;
                ++pageSenses_;
            }
            channel.readRegisterLpn = static_cast<std::int64_t>(lpn);
        }
    }

    t += transferTime(size);
    channel.busyUntil = t;
    return t;
}

std::uint64_t
FlashController::capacityBytes() const
{
    return channelBytes_ * params_.numChannels;
}

Tick
FlashController::drainWrites(Tick now)
{
    Tick last = now;
    for (unsigned c = 0; c < channels_.size(); ++c)
        last = std::max(last, drainChannel(c, now));
    return last;
}

Tick
FlashController::drainChannel(unsigned channel_index, Tick now)
{
    MERCURY_EXPECTS(channel_index < channels_.size(),
                    "bad flash channel index ", channel_index);
    Channel &channel = channels_[channel_index];
    Tick t = std::max(now, channel.busyUntil);
    while (!channel.writeSlots.empty())
        t += flushSlot(channel, channel.writeSlots.size() - 1, t);
    channel.busyUntil = t;
    return t;
}

double
FlashController::writeAmplification() const
{
    std::uint64_t host = 0, flash = 0;
    for (const auto &channel : channels_) {
        host += channel.ftl.hostWrites();
        flash += channel.ftl.flashWrites();
    }
    return host ? static_cast<double>(flash) / static_cast<double>(host)
                : 1.0;
}

void
FlashController::setFaultInjector(fault::FaultInjector *injector)
{
    faults_ = injector;
    for (unsigned c = 0; c < channels_.size(); ++c) {
        channels_[c].ftl.setFaultInjection(
            injector, params_.programFailProbability, 0.0,
            params_.name + ".ch" + std::to_string(c));
    }
}

void
FlashController::setWearRate(double program_fail_probability)
{
    params_.programFailProbability = program_fail_probability;
    setFaultInjector(faults_);
}

} // namespace mercury::mem
