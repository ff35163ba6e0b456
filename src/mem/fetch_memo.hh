/**
 * @file
 * Exact memo of an in-order core's L1I across its code passes.
 *
 * Only an in-order core's own code passes change its L1I, in trace
 * order, and no timing feeds back into the L1I. So the hit/miss
 * pattern of a pass, and the L1I it leaves behind, depend only on
 * the L1I's contents before the pass and on the pass's (address,
 * lines, stride). The memo stores each L1I state it meets by its
 * exact contents and, for each (state, pass) it has walked, the
 * state after the pass and which of the pass's lines missed. A
 * hierarchy that finds its (state, pass) replays only the misses.
 * See CacheHierarchy::fetchPass and DESIGN.md Sec. 8.
 */

#ifndef MERCURY_MEM_FETCH_MEMO_HH
#define MERCURY_MEM_FETCH_MEMO_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace mercury::mem
{

class SetAssocCache;

/**
 * L1I states and the passes between them, for any number of
 * hierarchies whose L1Is have the same geometry.
 *
 * A state is the key of every way in LRU-rank order within its set
 * (SetAssocCache::exportSet, 32 bits a key), so two states match
 * only if their contents and LRU orders match; a hash match is
 * always confirmed by comparing the full contents. Storage is fixed
 * at maxStates states and maxTransitions passes, allocated on first
 * use; past that budget no state or pass is added, and a hierarchy
 * that reaches a state the memo lacks walks its passes unmemoized.
 *
 * A memo is not thread-safe: every hierarchy using it must run on
 * one thread.
 */
class FetchMemo
{
  public:
    /** No state. */
    static constexpr std::uint32_t none = ~std::uint32_t{0};
    // The budget. Every simbench workload uses at most 18 states, 20
    // passes and 49 mask words per memo, a 16-node cluster sharing
    // one memo included. For the 32 KiB L1I (2 KiB a state) the
    // storage stays well under glibc's 128 KiB mmap threshold:
    // freeing an mmapped block raises that threshold for all later
    // allocations, which cost iridium_mixed_4k 2 % more peak RSS.

    /** States held at most. */
    static constexpr std::uint32_t maxStates = 30;
    /** Recorded passes held at most. */
    static constexpr std::uint32_t maxTransitions = 120;
    /** 64-line miss-mask words held at most. */
    static constexpr std::size_t maxMaskWords = 1024;

    /** One recorded pass out of a state. */
    struct Transition
    {
        Addr addr;
        std::uint64_t lines;
        std::uint64_t stride;
        /** Lines that missed. */
        std::uint64_t misses;
        /** First word of the miss mask: bit i of the mask is set if
         * line i of the pass missed. */
        std::size_t mask;
        /** State after the pass. */
        std::uint32_t to;
        /** Next transition out of the same state, or none. */
        std::uint32_t next;
    };

    FetchMemo() = default;
    FetchMemo(const FetchMemo &) = delete;
    FetchMemo &operator=(const FetchMemo &) = delete;

    /** Take the geometry of @p l1i, which must be 2-way, or check
     * that it matches the geometry already taken. */
    void attach(const SetAssocCache &l1i);

    /**
     * The state of @p l1i's contents, added if new. none, without
     * looking, once the memo holds maxStates states, and for a key
     * exportSet cannot store.
     */
    std::uint32_t identify(const SetAssocCache &l1i);

    /** The pass (@p addr, @p lines, @p stride) recorded out of
     * @p state, or nullptr. */
    const Transition *
    find(std::uint32_t state, Addr addr, std::uint64_t lines,
         std::uint64_t stride) const
    {
        for (std::uint32_t t = firstOut_[state]; t != none;
             t = transitions_[t].next) {
            const Transition &out = transitions_[t];
            if (out.addr == addr && out.lines == lines &&
                out.stride == stride)
                return &out;
        }
        return nullptr;
    }

    /** The miss mask of @p t. */
    const std::uint64_t *
    missMask(const Transition &t) const
    {
        return masks_.get() + t.mask;
    }

    /**
     * Zeroed room for the miss mask of a @p lines-line pass, or
     * nullptr if no more passes can be recorded. Valid until the
     * next beginRecord or record.
     */
    std::uint64_t *beginRecord(std::uint64_t lines);

    /**
     * After a walk of pass (@p addr, @p lines, @p stride) from
     * @p from left @p l1i as it is: find or add the state it left,
     * and record the pass if @p mask, from beginRecord, holds its
     * @p misses misses.
     *
     * @return the state after the pass; none if it is new and the
     * memo is full, or holds a key exportSet cannot store.
     */
    std::uint32_t record(std::uint32_t from, Addr addr,
                         std::uint64_t lines, std::uint64_t stride,
                         const SetAssocCache &l1i,
                         const std::uint64_t *mask, std::uint64_t misses);

    /** Make @p l1i's arrays hold @p state. */
    void restore(std::uint32_t state, SetAssocCache &l1i) const;

    std::uint32_t states() const { return states_; }

  private:
    /** Allocate the storage, once. */
    void allocate();

    std::uint32_t *
    stateKeys(std::uint32_t state) const
    {
        return keys_.get() + std::size_t{state} * ways_;
    }

    /** Hash of one set's exported keys. */
    std::uint64_t setHash(std::size_t set,
                          const std::uint32_t *keys) const;

    /**
     * The state matching the candidate in slot states_ (hash
     * @p hash), adding it if new and there is room; none otherwise.
     */
    std::uint32_t intern(std::uint64_t hash);

    /** Ways in a set of the L1I. */
    static constexpr unsigned setWays = 2;

    // Geometry of the attached L1Is; sets_ == 0 until the first.
    std::size_t sets_ = 0;
    std::size_t ways_ = 0;

    std::uint32_t states_ = 0;
    std::uint32_t transitionCount_ = 0;
    std::size_t maskWords_ = 0;

    /** maxStates + 1 states of ways_ keys each; slot states_ holds
     * the candidate being built. */
    std::unique_ptr<std::uint32_t[]> keys_;
    std::unique_ptr<std::uint64_t[]> hashes_;
    /** First transition out of each state. */
    std::unique_ptr<std::uint32_t[]> firstOut_;
    std::unique_ptr<Transition[]> transitions_;
    std::unique_ptr<std::uint64_t[]> masks_;
    /** Open-addressed index of states by hash: state + 1, or 0. */
    std::unique_ptr<std::uint32_t[]> table_;
    /** Per set, the record() call that last exported it. */
    std::unique_ptr<std::uint32_t[]> seen_;
    std::uint32_t epoch_ = 0;
};

} // namespace mercury::mem

#endif // MERCURY_MEM_FETCH_MEMO_HH
