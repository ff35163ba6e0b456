/**
 * @file
 * Ring-buffered request-lifecycle event tracer.
 *
 * A request flows NIC-in -> TCP/UDP stack -> hash -> store walk ->
 * DRAM/flash -> NIC-out; the tracer records one Span per stage with
 * begin/end ticks so per-request breakdowns (paper Fig. 4) can be
 * reconstructed offline from `--trace-out` instead of bespoke
 * plumbing.
 *
 * Off modes, both provably zero-cost on the simulated timeline
 * (recording is pure observation and never consumes RNG state):
 *
 *  - compile-time: configure with -DMERCURY_TRACING=OFF and the
 *    MERCURY_TRACE_SPAN macro expands to nothing;
 *  - runtime: subsystems only record through a Tracer pointer they
 *    were explicitly handed (default nullptr), and an attached
 *    tracer can additionally be setEnabled(false).
 *
 * The buffer is a fixed-capacity ring: recording never allocates
 * after construction, and when full the oldest spans are overwritten
 * (droppedSpans() counts them).
 */

#ifndef MERCURY_SIM_TRACE_HH
#define MERCURY_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

#ifndef MERCURY_TRACING
#define MERCURY_TRACING 1
#endif

namespace mercury::trace
{

/** Request lifecycle stages, in wire order. */
enum class Stage : std::uint8_t
{
    NicIn,     ///< client -> server wire + NIC delivery
    Netstack,  ///< TCP/UDP per-packet processing and copies
    Hash,      ///< key hash computation
    StoreWalk, ///< hash-table walk + item bookkeeping
    Memory,    ///< explicit DRAM/flash persistence (PUT programs)
    NicOut,    ///< server -> client wire
    Request,   ///< whole-request envelope span
    Client,    ///< cluster client-side envelope (arrival -> answer)
    Attempt,   ///< one client attempt against one node (or timeout)
    Backoff,   ///< client retry backoff between attempts
    NicCache,  ///< on-NIC GET cache lookup (hit: answers in place)
};

/** Stable printable name ("nic-in", "store-walk", ...). */
const char *stageName(Stage stage);

/** Node id of client-side spans in a cluster trace. */
constexpr std::uint16_t clientNode = 0xffff;

/** Span::parent value meaning "no causal parent". */
constexpr std::uint32_t noParent = 0xffffffff;

/** One recorded stage span. */
struct Span
{
    Tick begin = 0;
    Tick end = 0;
    std::uint64_t arg = 0;   ///< stage-specific (bytes, hit flag...)
    std::uint32_t request = 0;
    /** Request id this span's request was issued on behalf of
     * (client -> ring -> failover hops), or noParent. */
    std::uint32_t parent = noParent;
    /** Node the span executed on (clientNode for the
     * cluster client side; 0 for single-node runs). */
    std::uint16_t node = 0;
    Stage stage{};
};

class Tracer
{
  public:
    /** @param capacity spans retained (oldest overwritten beyond). */
    explicit Tracer(std::size_t capacity = 1 << 16);

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Start a new request; returns its id for subsequent spans. */
    std::uint32_t
    beginRequest()
    {
        return nextRequest_++;
    }

    /**
     * Recording context: spans stamped until the next set. A cluster
     * harness sets (node, parentRequest) around each per-node model
     * invocation, so the model's unchanged record() calls produce
     * cross-node causally-linked spans. ScopedTraceContext restores
     * the previous context on scope exit and tolerates a null
     * tracer.
     */
    void
    setContext(std::uint16_t node, std::uint32_t parent = noParent)
    {
        node_ = node;
        parent_ = parent;
    }

    std::uint16_t contextNode() const { return node_; }
    std::uint32_t contextParent() const { return parent_; }

    /** Record one stage span. No-op while disabled. */
    void
    record(std::uint32_t request, Stage stage, Tick begin, Tick end,
           std::uint64_t arg = 0)
    {
        if (!enabled_)
            return;
        Span &span = ring_[written_ % ring_.size()];
        span.begin = begin;
        span.end = end;
        span.arg = arg;
        span.request = request;
        span.parent = parent_;
        span.node = node_;
        span.stage = stage;
        ++written_;
    }

    std::size_t capacity() const { return ring_.size(); }

    /** Spans currently retained in the ring. */
    std::size_t
    size() const
    {
        return written_ < ring_.size()
                   ? static_cast<std::size_t>(written_)
                   : ring_.size();
    }

    /** Spans overwritten because the ring wrapped. */
    std::uint64_t
    droppedSpans() const
    {
        return written_ < ring_.size() ? 0 : written_ - ring_.size();
    }

    std::uint64_t recordedSpans() const { return written_; }

    /** Retained span by age (0 = oldest retained). */
    const Span &span(std::size_t index) const;

    /** One JSON object per line, oldest retained span first. */
    void writeJsonl(std::ostream &os) const;

    /**
     * Chrome trace-event JSON (loadable in Perfetto or
     * chrome://tracing): one complete ("X") event per span with
     * pid = node, tid = request and timestamps in microseconds,
     * process-name metadata per node, and flow arrows from each
     * cluster Client envelope to its Attempt spans so the
     * client -> node -> failover causality renders as arrows.
     */
    void writeChromeJson(std::ostream &os) const;

    /** FNV-1a fold of the retained spans, for drift tests. */
    std::uint64_t digest() const;

    void clear();

  private:
    bool enabled_ = true;
    std::uint32_t nextRequest_ = 0;
    std::uint64_t written_ = 0;
    std::uint16_t node_ = 0;
    std::uint32_t parent_ = noParent;
    std::vector<Span> ring_;
};

/**
 * RAII context guard: installs (node, parent) on construction,
 * restores the previous context on destruction. Null tracer is a
 * no-op, so harness code can guard unconditionally.
 */
class ScopedTraceContext
{
  public:
    ScopedTraceContext(Tracer *tracer, std::uint16_t node,
                       std::uint32_t parent = noParent)
        : tracer_(tracer)
    {
        if (tracer_) {
            prevNode_ = tracer_->contextNode();
            prevParent_ = tracer_->contextParent();
            tracer_->setContext(node, parent);
        }
    }

    ~ScopedTraceContext()
    {
        if (tracer_)
            tracer_->setContext(prevNode_, prevParent_);
    }

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

  private:
    Tracer *tracer_;
    std::uint16_t prevNode_ = 0;
    std::uint32_t prevParent_ = noParent;
};

} // namespace mercury::trace

/**
 * Record a span through an optional tracer pointer. Compiles to
 * nothing when tracing is configured out, so instrumented hot paths
 * carry provably zero cost in that build.
 */
#if MERCURY_TRACING
#define MERCURY_TRACE_SPAN(tracer, request, stage, begin, end, arg)   \
    do {                                                              \
        if (tracer)                                                   \
            (tracer)->record((request), (stage), (begin), (end),      \
                             (arg));                                  \
    } while (0)
#else
#define MERCURY_TRACE_SPAN(tracer, request, stage, begin, end, arg)   \
    do {                                                              \
    } while (0)
#endif

#endif // MERCURY_SIM_TRACE_HH
