/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel follows the classic gem5 structure: Events are scheduled
 * on an EventQueue at absolute ticks and are serviced in (tick,
 * priority, insertion-order) order.
 *
 * The queue is an intrusive two-level structure. The first level is a
 * doubly-linked list of *bins*, one per distinct (tick, priority) key,
 * kept in service order; the second level is a circular doubly-linked
 * FIFO of the events inside one bin. All links live inside the Event
 * itself, so schedule / deschedule / serviceOne never allocate, and
 * every list operation is O(1) once the bin is located. Locating the
 * bin checks the head and tail first (the overwhelmingly common
 * "near now" and "append at end" cases) before walking, which keeps
 * scheduling O(1) amortized for the workloads the simulator runs.
 *
 * Statically owned events work exactly as before: the queue owns
 * nothing and event lifetime is the caller's responsibility, which
 * allows events to be members of the objects they operate on. For
 * dynamically created one-shot events, each queue also carries a slab
 * EventArena: makeEvent<T>() returns an arena-owned event that is
 * destroyed and recycled automatically after it is serviced (or when
 * it is descheduled), so the hot path never touches the host
 * allocator. Never `delete` an arena-owned event (the mercury_lint
 * event-ownership rule flags it).
 */

#ifndef MERCURY_SIM_EVENT_QUEUE_HH
#define MERCURY_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event_arena.hh"
#include "sim/types.hh"

#ifndef MERCURY_EVENT_PROFILE
#define MERCURY_EVENT_PROFILE 0
#endif

namespace mercury
{

class EventQueue;

/**
 * Host-side cost map of an event queue's activity: where host cycles
 * go per event type, plus queue depth / first-level bin occupancy at
 * every service: which subsystems dominate host time, and how
 * contended is the queue.
 *
 * The class itself is always compiled (it is directly unit-tested);
 * the EventQueue hooks that feed it with steady_clock measurements
 * around process() exist only when configured with
 * -DMERCURY_PROFILE_EVENTS=ON. The default build's serviceOne is
 * hook-free, so the zero-overhead-off contract holds at the
 * instruction level, and the simulated timeline is identical either
 * way (profiling is pure host-side observation).
 *
 * Host times are inherently machine-dependent; nothing emitted here
 * is golden-pinned. Aggregation by type is a std::map, so writeJson
 * emits types in sorted order -- the *structure* is deterministic
 * even though the numbers are not.
 *
 * Threading: a profiler is confined to its owning EventQueue's
 * thread and carries no lock (the hot noteService path must stay
 * cheap even in profiling builds).
 */
class EventProfiler
{
  public:
    struct TypeCost
    {
        std::uint64_t serviced = 0;
        std::uint64_t hostNs = 0;
    };

    /** Account one serviced event of @p type costing @p host_ns. */
    void
    noteService(const std::string &type, std::uint64_t host_ns)
    {
        TypeCost &cost = costs_[type];
        ++cost.serviced;
        cost.hostNs += host_ns;
        ++serviced_;
        hostNs_ += host_ns;
    }

    /** Sample the queue shape (events pending, first-level bins)
     * observed at one service. */
    void
    noteQueueShape(std::size_t depth, std::size_t bins)
    {
        ++shapeSamples_;
        depthSum_ += depth;
        binSum_ += bins;
        if (depth > depthMax_)
            depthMax_ = depth;
        if (bins > binMax_)
            binMax_ = bins;
    }

    std::uint64_t serviced() const { return serviced_; }
    std::uint64_t hostNs() const { return hostNs_; }
    std::uint64_t shapeSamples() const { return shapeSamples_; }
    std::uint64_t maxDepth() const { return depthMax_; }
    std::uint64_t maxBins() const { return binMax_; }

    double
    meanDepth() const
    {
        return shapeSamples_ ? static_cast<double>(depthSum_) /
                                   static_cast<double>(shapeSamples_)
                             : 0.0;
    }

    double
    meanBins() const
    {
        return shapeSamples_ ? static_cast<double>(binSum_) /
                                   static_cast<double>(shapeSamples_)
                             : 0.0;
    }

    /** Per-type costs, keyed and iterated in sorted type order. */
    const std::map<std::string, TypeCost> &costs() const
    {
        return costs_;
    }

    /**
     * One JSON object: totals, queue-shape summary, and a "types"
     * map of {serviced, host_ns, share} sorted by type name.
     */
    void writeJson(std::ostream &os) const;

    void clear();

  private:
    std::map<std::string, TypeCost> costs_;
    std::uint64_t serviced_ = 0;
    std::uint64_t hostNs_ = 0;
    std::uint64_t shapeSamples_ = 0;
    std::uint64_t depthSum_ = 0;
    std::uint64_t depthMax_ = 0;
    std::uint64_t binSum_ = 0;
    std::uint64_t binMax_ = 0;
};

/**
 * An occurrence scheduled to happen at a future tick.
 *
 * Derive and implement process(), or use EventFunctionWrapper for
 * lambda-based events.
 */
class Event
{
  public:
    /** Relative ordering of events scheduled for the same tick;
     * lower values are serviced first. */
    using Priority = int;

    static constexpr Priority defaultPriority = 0;
    /** Service before ordinary events at the same tick. */
    static constexpr Priority highPriority = -100;
    /** Service after ordinary events at the same tick (e.g. stats
     * sampling). */
    static constexpr Priority lowPriority = 100;

    explicit Event(Priority priority = defaultPriority)
        : _priority(priority)
    {}

    virtual ~Event();

    /** The event's action, invoked when the queue reaches its tick. */
    virtual void process() = 0;

    /** Human-readable description for debugging. */
    virtual std::string description() const { return "generic event"; }

    /** Tick this event is currently scheduled for. Only meaningful
     * while scheduled() is true. */
    Tick when() const { return _when; }

    Priority priority() const { return _priority; }

    /** True while the event sits in a queue awaiting service. */
    bool scheduled() const { return _scheduled; }

    /** True when the event's storage is owned by its queue's arena
     * (created via EventQueue::makeEvent); such events are released
     * automatically after service or deschedule. */
    bool arenaManaged() const { return _arenaManaged; }

  private:
    friend class EventQueue;

    // --- intrusive queue links (owned by the queue while scheduled) -
    //
    // Events at one (when, priority) key form a circular doubly-linked
    // FIFO through _nextInBin/_prevInBin; the oldest event of each bin
    // is the *bin head* and additionally carries the _nextBin/_prevBin
    // links of the first-level bin list. Only the queue ever touches
    // these.
    Event *_nextBin = nullptr;
    Event *_prevBin = nullptr;
    Event *_nextInBin = nullptr;
    Event *_prevInBin = nullptr;

    Tick _when = 0;
    std::uint64_t _sequence = 0;
    Priority _priority;
    bool _scheduled = false;
    bool _binHead = false;
    bool _arenaManaged = false;
};

/** Convenience event that runs a captured callable. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback,
                         std::string name = "function event",
                         Priority priority = defaultPriority)
        : Event(priority), callback_(std::move(callback)),
          name_(std::move(name))
    {}

    void process() override { callback_(); }
    std::string description() const override { return name_; }

  private:
    std::function<void()> callback_;
    std::string name_;
};

/**
 * The event queue: a priority queue of events ordered by tick,
 * priority, then insertion order (for determinism).
 */
class EventQueue
{
  public:
    explicit EventQueue(std::string name = "event queue");
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    const std::string &name() const { return _name; }

    /** Number of events awaiting service. */
    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Number of first-level (tick, priority) bins currently live;
     * size()/bins() is the mean bin occupancy. */
    std::size_t bins() const { return binCount_; }

    /** Total events serviced since construction. */
    Counter numServiced() const { return _numServiced; }

    /**
     * Schedule an event at an absolute tick.
     *
     * @pre when >= curTick(); scheduling in the past is a simulator
     *      bug and panics.
     * @pre the event is not already scheduled.
     */
    void schedule(Event *event, Tick when);

    /**
     * Remove a scheduled event from the queue without running it.
     * An arena-managed event is released back to the arena and must
     * not be touched afterwards.
     */
    void deschedule(Event *event);

    /**
     * Deschedule (if needed) and schedule at a new tick, as a single
     * unlink + relink with one structural audit. The event is
     * re-stamped with a fresh sequence number, so it services after
     * events already queued at the same (tick, priority) — exactly
     * the order the old deschedule-then-schedule pair produced.
     */
    void reschedule(Event *event, Tick when);

    /**
     * Service the single next event, advancing curTick to its time.
     *
     * @return the event serviced, or nullptr if the queue was empty
     *         or the serviced event was arena-managed (it has been
     *         released and must not be touched).
     */
    Event *serviceOne();

    /**
     * Run until the queue drains or the time limit is exceeded.
     * Events scheduled exactly at @p limit are still serviced.
     *
     * @return number of events serviced.
     */
    Counter run(Tick limit = maxTick);

    /** Advance time with no event semantics (used by timing-walk
     * models that share a clock with the event world). */
    void setCurTick(Tick tick);

    /**
     * Construct a dynamically-created event in this queue's slab
     * arena. The queue releases it automatically after it is
     * serviced or descheduled; never delete it manually.
     */
    template <typename T, typename... Args>
    T *
    makeEvent(Args &&...args)
    {
        T *event = arena_.make<T>(std::forward<Args>(args)...);
        event->_arenaManaged = true;
        return event;
    }

    /** The queue's event arena (exposed for capacity probes). */
    const EventArena &arena() const { return arena_; }

#if MERCURY_EVENT_PROFILE
    /** Host-side profiler fed by serviceOne (profiling builds only;
     * guard call sites with `#if MERCURY_EVENT_PROFILE`). */
    EventProfiler &profiler() { return profiler_; }
    const EventProfiler &profiler() const { return profiler_; }
#endif

  private:
    /** Tick of the next event to service; queue must be non-empty. */
    Tick headWhen() const { return head_->_when; }

    /** True when a orders strictly before b's (when, priority). */
    static bool
    binBefore(Tick when, Event::Priority priority, const Event *b)
    {
        if (when != b->_when)
            return when < b->_when;
        return priority < b->_priority;
    }

    /** Same first-level key (one bin)? */
    static bool
    binEqual(Tick when, Event::Priority priority, const Event *b)
    {
        return when == b->_when && priority == b->_priority;
    }

    /** Unlink @p event from both levels; flags are left untouched. */
    void unlink(Event *event);

    /** Link @p event into the two-level structure at its stamped
     * (when, priority), at the tail of its bin. */
    void link(Event *event);

    /** Release an arena-managed event after service/deschedule. */
    void releaseIfManaged(Event *event);

    /** Full structural audit (ordering, flags, cross-links); used by
     * MERCURY_ASSERT_SLOW in the mutating paths. */
    bool checkInvariants() const;

    std::string _name;
    Tick _curTick = 0;
    std::uint64_t _nextSequence = 0;
    Counter _numServiced = 0;
    std::size_t size_ = 0;
    /** Live first-level bins (maintained by link/unlink). */
    std::size_t binCount_ = 0;
    /** Head of the first-level bin list (earliest bin), or nullptr. */
    Event *head_ = nullptr;
    /** Last bin, for O(1) append-beyond-the-end scheduling. */
    Event *tail_ = nullptr;
    EventArena arena_;
#if MERCURY_EVENT_PROFILE
    EventProfiler profiler_;
#endif
};

} // namespace mercury

#endif // MERCURY_SIM_EVENT_QUEUE_HH
