#include "sim/event_queue.hh"

#include <vector>

#if MERCURY_EVENT_PROFILE
#include <chrono>
#endif

#include "sim/contract.hh"
#include "sim/json.hh"

namespace mercury
{

void
EventProfiler::writeJson(std::ostream &os) const
{
    bool first = true;
    os << "{";
    json::writeField(os, first, "serviced", serviced_);
    json::writeField(os, first, "host_ns", hostNs_);
    json::writeField(os, first, "shape_samples", shapeSamples_);
    json::writeField(os, first, "mean_depth", meanDepth());
    json::writeField(os, first, "max_depth", depthMax_);
    json::writeField(os, first, "mean_bins", meanBins());
    json::writeField(os, first, "max_bins", binMax_);
    json::writeKey(os, first, "types");
    os << "{";
    bool first_type = true;
    for (const auto &[type, cost] : costs_) {
        json::writeKey(os, first_type, type);
        os << "{";
        bool first_field = true;
        json::writeField(os, first_field, "serviced", cost.serviced);
        json::writeField(os, first_field, "host_ns", cost.hostNs);
        json::writeField(os, first_field, "share",
                         hostNs_ ? static_cast<double>(cost.hostNs) /
                                       static_cast<double>(hostNs_)
                                 : 0.0);
        os << "}";
    }
    os << "}}\n";
}

void
EventProfiler::clear()
{
    costs_.clear();
    serviced_ = 0;
    hostNs_ = 0;
    shapeSamples_ = 0;
    depthSum_ = 0;
    depthMax_ = 0;
    binSum_ = 0;
    binMax_ = 0;
}

Event::~Event()
{
    MERCURY_ASSERT(!_scheduled,
                   "event destroyed while scheduled: ", description());
}

EventQueue::EventQueue(std::string name)
    : _name(std::move(name))
{}

EventQueue::~EventQueue()
{
    // Arena events still queued at teardown are released here, under
    // their own bookkeeping, so the arena's destructor never sees a
    // still-scheduled Event (whose destructor would assert). Static
    // events keep their scheduled flag: destroying one while its
    // queue entry was never serviced is a bug worth the assert.
    std::vector<Event *> managed;
    for (Event *bin = head_; bin; bin = bin->_nextBin) {
        Event *event = bin;
        do {
            if (event->_arenaManaged)
                managed.push_back(event);
            event = event->_nextInBin;
        } while (event != bin);
    }
    for (Event *event : managed) {
        event->_scheduled = false;
        arena_.release(event);
    }
}

bool
EventQueue::checkInvariants() const
{
    // Walk both levels: bins must ascend strictly in (when,
    // priority); every member must carry its bin's key, be flagged
    // scheduled, and link back consistently; the member count must
    // match size().
    std::size_t counted = 0;
    std::size_t countedBins = 0;
    const Event *prevBin = nullptr;
    for (const Event *bin = head_; bin; bin = bin->_nextBin) {
        ++countedBins;
        if (!bin->_binHead)
            return false;
        if (bin->_prevBin != prevBin)
            return false;
        if (prevBin && !binBefore(prevBin->_when, prevBin->_priority, bin))
            return false;
        if (bin->_when < _curTick)
            return false;
        const Event *event = bin;
        do {
            if (!event->_scheduled)
                return false;
            if (event->_when != bin->_when ||
                event->_priority != bin->_priority) {
                return false;
            }
            if (event != bin && event->_binHead)
                return false;
            if (event->_nextInBin->_prevInBin != event)
                return false;
            ++counted;
            event = event->_nextInBin;
        } while (event != bin);
        prevBin = bin;
    }
    if (tail_ != prevBin)
        return false;
    if (countedBins != binCount_)
        return false;
    return counted == size_;
}

void
EventQueue::link(Event *event)
{
    const Tick when = event->_when;
    const Event::Priority priority = event->_priority;

    // Self-link the second level; fixed up below when joining a bin.
    event->_nextInBin = event;
    event->_prevInBin = event;
    event->_nextBin = nullptr;
    event->_prevBin = nullptr;
    event->_binHead = false;

    if (!head_) {
        event->_binHead = true;
        head_ = tail_ = event;
        ++binCount_;
        return;
    }

    // Find the first bin not ordering before (when, priority).
    // Checking the tail first makes append-at-the-end O(1); the walk
    // from the head is short for the dominant near-now schedules.
    Event *bin;
    if (binBefore(tail_->_when, tail_->_priority, event) ||
        binEqual(when, priority, tail_)) {
        bin = binEqual(when, priority, tail_) ? tail_ : nullptr;
    } else {
        bin = head_;
        while (bin && binBefore(bin->_when, bin->_priority, event))
            bin = bin->_nextBin;
        if (bin && !binEqual(when, priority, bin)) {
            // Insert a new bin before `bin`.
            event->_binHead = true;
            event->_prevBin = bin->_prevBin;
            event->_nextBin = bin;
            if (bin->_prevBin)
                bin->_prevBin->_nextBin = event;
            else
                head_ = event;
            bin->_prevBin = event;
            ++binCount_;
            return;
        }
    }

    if (!bin) {
        // Append a fresh last bin.
        event->_binHead = true;
        event->_prevBin = tail_;
        tail_->_nextBin = event;
        tail_ = event;
        ++binCount_;
        return;
    }

    // FIFO-append into the existing bin (before the head in the
    // circular list).
    Event *last = bin->_prevInBin;
    last->_nextInBin = event;
    event->_prevInBin = last;
    event->_nextInBin = bin;
    bin->_prevInBin = event;
}

void
EventQueue::unlink(Event *event)
{
    if (!event->_binHead) {
        event->_prevInBin->_nextInBin = event->_nextInBin;
        event->_nextInBin->_prevInBin = event->_prevInBin;
        return;
    }

    if (event->_nextInBin == event) {
        // Sole member: drop the whole bin from the first level.
        if (event->_prevBin)
            event->_prevBin->_nextBin = event->_nextBin;
        else
            head_ = event->_nextBin;
        if (event->_nextBin)
            event->_nextBin->_prevBin = event->_prevBin;
        else
            tail_ = event->_prevBin;
        --binCount_;
    } else {
        // Promote the next-oldest member to bin head.
        Event *next = event->_nextInBin;
        event->_prevInBin->_nextInBin = next;
        next->_prevInBin = event->_prevInBin;
        next->_binHead = true;
        next->_nextBin = event->_nextBin;
        next->_prevBin = event->_prevBin;
        if (event->_prevBin)
            event->_prevBin->_nextBin = next;
        else
            head_ = next;
        if (event->_nextBin)
            event->_nextBin->_prevBin = next;
        else
            tail_ = next;
    }
    event->_binHead = false;
}

void
EventQueue::releaseIfManaged(Event *event)
{
    if (event->_arenaManaged)
        arena_.release(event);
}

void
EventQueue::schedule(Event *event, Tick when)
{
    MERCURY_EXPECTS(event != nullptr, "null event scheduled on ", _name);
    MERCURY_EXPECTS(!event->_scheduled,
                    "double-schedule of event: ", event->description());
    MERCURY_EXPECTS(when >= _curTick,
                    "event '", event->description(),
                    "' scheduled in the past: when=", when,
                    " curTick=", _curTick);

    event->_when = when;
    event->_sequence = _nextSequence++;
    event->_scheduled = true;
    link(event);
    ++size_;
    MERCURY_ASSERT_SLOW(checkInvariants(),
                        "event queue ", _name,
                        " inconsistent after schedule");
}

void
EventQueue::deschedule(Event *event)
{
    MERCURY_EXPECTS(event != nullptr,
                    "null event descheduled on ", _name);
    MERCURY_EXPECTS(event->_scheduled,
                    "deschedule of unscheduled event: ",
                    event->description());

    unlink(event);
    --size_;
    event->_scheduled = false;
    MERCURY_ASSERT_SLOW(checkInvariants(),
                        "event queue ", _name,
                        " inconsistent after deschedule");
    releaseIfManaged(event);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    MERCURY_EXPECTS(event != nullptr,
                    "null event rescheduled on ", _name);
    if (!event->_scheduled) {
        schedule(event, when);
        return;
    }
    MERCURY_EXPECTS(when >= _curTick,
                    "event '", event->description(),
                    "' rescheduled in the past: when=", when,
                    " curTick=", _curTick);

    // Single move: unlink from the old bin, restamp, relink -- one
    // structural audit instead of the two a deschedule + schedule
    // pair would run.
    unlink(event);
    event->_when = when;
    event->_sequence = _nextSequence++;
    link(event);
    MERCURY_ASSERT_SLOW(checkInvariants(),
                        "event queue ", _name,
                        " inconsistent after reschedule");
}

Event *
EventQueue::serviceOne()
{
    if (!head_)
        return nullptr;

    Event *event = head_;
    MERCURY_ASSERT(event->_when >= _curTick, "event queue time warp: ",
                   "head when=", event->_when, " curTick=", _curTick);
#if MERCURY_EVENT_PROFILE
    // Shape before the unlink: the depth/occupancy this service saw.
    profiler_.noteQueueShape(size_, binCount_);
    const std::string profiledType = event->description();
#endif
    unlink(event);
    --size_;
    _curTick = event->_when;
    contract::noteTick(_curTick);

    event->_scheduled = false;
    ++_numServiced;
#if MERCURY_EVENT_PROFILE
    const auto hostBegin = std::chrono::steady_clock::now();
    event->process();
    profiler_.noteService(
        profiledType,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - hostBegin)
                .count()));
#else
    event->process();
#endif
    MERCURY_ASSERT_SLOW(checkInvariants(),
                        "event queue ", _name,
                        " inconsistent after servicing ",
                        event->description());
    if (event->_arenaManaged && !event->_scheduled) {
        // One-shot arena event: recycle it now that it ran (unless
        // process() rescheduled it).
        arena_.release(event);
        return nullptr;
    }
    return event;
}

Counter
EventQueue::run(Tick limit)
{
    Counter serviced = 0;
    while (head_ && headWhen() <= limit) {
        serviceOne();
        ++serviced;
    }
    if (_curTick < limit && limit != maxTick) {
        _curTick = limit;
        contract::noteTick(_curTick);
    }
    return serviced;
}

void
EventQueue::setCurTick(Tick tick)
{
    MERCURY_EXPECTS(tick >= _curTick,
                    "attempt to move simulated time backwards: tick=",
                    tick, " curTick=", _curTick);
    if (head_) {
        MERCURY_EXPECTS(tick <= headWhen(),
                        "setCurTick would skip scheduled events: tick=",
                        tick, " next event at ", headWhen());
    }
    _curTick = tick;
    contract::noteTick(_curTick);
}

} // namespace mercury
