#include "mem/fetch_memo.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "mem/cache.hh"
#include "sim/contract.hh"

namespace mercury::mem
{

namespace
{

/** Slots of the state index: a power of two, at least twice the
 * states it holds. */
constexpr std::size_t tableSlots = 2 * std::bit_ceil(
    std::size_t{FetchMemo::maxStates});

} // anonymous namespace

void
FetchMemo::attach(const SetAssocCache &l1i)
{
    MERCURY_EXPECTS(l1i.params().assoc == setWays,
                    "a fetch memo needs a 2-way L1I, got ",
                    l1i.params().assoc, " ways");
    if (sets_ == 0) {
        sets_ = l1i.numSets();
        ways_ = sets_ * setWays;
    }
    MERCURY_EXPECTS(l1i.numSets() == sets_,
                    "hierarchies sharing a fetch memo need one L1I "
                    "geometry");
}

void
FetchMemo::allocate()
{
    keys_ = std::make_unique_for_overwrite<std::uint32_t[]>(
        (std::size_t{maxStates} + 1) * ways_);
    hashes_ = std::make_unique_for_overwrite<std::uint64_t[]>(maxStates);
    firstOut_ = std::make_unique_for_overwrite<std::uint32_t[]>(
        maxStates);
    transitions_ =
        std::make_unique_for_overwrite<Transition[]>(maxTransitions);
    masks_ = std::make_unique_for_overwrite<std::uint64_t[]>(
        maxMaskWords);
    table_ = std::make_unique<std::uint32_t[]>(tableSlots);
    seen_ = std::make_unique<std::uint32_t[]>(sets_);
}

std::uint64_t
FetchMemo::setHash(std::size_t set, const std::uint32_t *keys) const
{
    // Weak but cheap, with no multiply waiting on another: a
    // collision costs only a full compare.
    const std::uint64_t h = keys[0] * 0x9e3779b97f4a7c15ULL +
                            keys[1] * 0xc2b2ae3d27d4eb4fULL;
    return h * (2 * set + 1);
}

std::uint32_t
FetchMemo::intern(std::uint64_t hash)
{
    const std::uint32_t *candidate = stateKeys(states_);
    const std::size_t bytes = ways_ * sizeof(std::uint32_t);
    std::size_t slot = (hash ^ (hash >> 32)) & (tableSlots - 1);
    for (;; slot = (slot + 1) & (tableSlots - 1)) {
        const std::uint32_t entry = table_[slot];
        if (entry == 0)
            break;
        const std::uint32_t state = entry - 1;
        if (hashes_[state] == hash &&
            std::memcmp(stateKeys(state), candidate, bytes) == 0)
            return state;
    }
    if (states_ == maxStates)
        return none;
    const std::uint32_t state = states_++;
    hashes_[state] = hash;
    firstOut_[state] = none;
    table_[slot] = state + 1;
    return state;
}

std::uint32_t
FetchMemo::identify(const SetAssocCache &l1i)
{
    MERCURY_ASSERT(sets_ != 0, "fetch memo used before attach");
    if (!keys_)
        allocate();
    if (states_ == maxStates)
        return none;
    std::uint32_t *candidate = stateKeys(states_);
    std::uint64_t hash = 0;
    bool fits = true;
    for (std::size_t set = 0; set < sets_; ++set) {
        std::uint32_t *keys = candidate + set * setWays;
        fits &= l1i.exportSet(set, keys);
        hash += setHash(set, keys);
    }
    return fits ? intern(hash) : none;
}

std::uint64_t *
FetchMemo::beginRecord(std::uint64_t lines)
{
    const std::size_t words = (lines + 63) / 64;
    if (transitionCount_ == maxTransitions ||
        words > maxMaskWords - maskWords_)
        return nullptr;
    std::uint64_t *mask = masks_.get() + maskWords_;
    std::fill(mask, mask + words, 0);
    return mask;
}

std::uint32_t
FetchMemo::record(std::uint32_t from, Addr addr, std::uint64_t lines,
                  std::uint64_t stride, const SetAssocCache &l1i,
                  const std::uint64_t *mask, std::uint64_t misses)
{
    // The candidate is `from` with every set the pass touched
    // exported again, each exactly once.
    std::uint32_t *candidate = stateKeys(states_);
    std::memcpy(candidate, stateKeys(from),
                ways_ * sizeof(std::uint32_t));
    std::uint64_t hash = hashes_[from];
    bool fits = true;
    if (++epoch_ == 0) {
        std::fill(seen_.get(), seen_.get() + sets_, 0);
        epoch_ = 1;
    }
    Addr line_addr = addr;
    for (std::uint64_t i = 0; i < lines; ++i, line_addr += stride) {
        const std::size_t set = l1i.setOf(line_addr);
        if (seen_[set] == epoch_)
            continue;
        seen_[set] = epoch_;
        std::uint32_t *keys = candidate + set * setWays;
        hash -= setHash(set, keys);
        fits &= l1i.exportSet(set, keys);
        hash += setHash(set, keys);
    }
    if (!fits)
        return none;

    const std::uint32_t to = intern(hash);
    if (to != none && mask) {
        MERCURY_ASSERT(mask == masks_.get() + maskWords_,
                       "miss mask not from the last beginRecord");
        const std::uint32_t t = transitionCount_++;
        transitions_[t] = {addr,      lines, stride,        misses,
                           maskWords_, to,   firstOut_[from]};
        firstOut_[from] = t;
        maskWords_ += (lines + 63) / 64;
    }
    return to;
}

void
FetchMemo::restore(std::uint32_t state, SetAssocCache &l1i) const
{
    l1i.restore(stateKeys(state));
}

} // namespace mercury::mem
