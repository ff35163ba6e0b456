#include "sim/trace.hh"

#include "sim/contract.hh"
#include "sim/json.hh"

namespace mercury::trace
{

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::NicIn: return "nic-in";
      case Stage::Netstack: return "netstack";
      case Stage::Hash: return "hash";
      case Stage::StoreWalk: return "store-walk";
      case Stage::Memory: return "memory";
      case Stage::NicOut: return "nic-out";
      case Stage::Request: return "request";
      case Stage::Client: return "client";
      case Stage::Attempt: return "attempt";
      case Stage::Backoff: return "backoff";
      case Stage::NicCache: return "nic-cache";
    }
    return "unknown";
}

Tracer::Tracer(std::size_t capacity)
{
    MERCURY_EXPECTS(capacity > 0, "tracer needs a non-empty ring");
    ring_.resize(capacity);
}

const Span &
Tracer::span(std::size_t index) const
{
    MERCURY_EXPECTS(index < size(), "tracer span index out of range");
    const std::size_t oldest =
        written_ < ring_.size()
            ? 0
            : static_cast<std::size_t>(written_ % ring_.size());
    return ring_[(oldest + index) % ring_.size()];
}

void
Tracer::writeJsonl(std::ostream &os) const
{
    for (std::size_t i = 0; i < size(); ++i) {
        const Span &s = span(i);
        bool first = true;
        os << "{";
        json::writeField(os, first, "req",
                         static_cast<std::uint64_t>(s.request));
        json::writeField(os, first, "stage",
                         std::string_view(stageName(s.stage)));
        json::writeField(os, first, "node",
                         static_cast<std::uint64_t>(s.node));
        if (s.parent != noParent)
            json::writeField(os, first, "parent",
                             static_cast<std::uint64_t>(s.parent));
        json::writeField(os, first, "begin",
                         static_cast<std::uint64_t>(s.begin));
        json::writeField(os, first, "end",
                         static_cast<std::uint64_t>(s.end));
        json::writeField(os, first, "arg", s.arg);
        os << "}\n";
    }
}

namespace
{

/** Ticks (ps) as Chrome's microsecond timestamps, exactly. */
void
writeTs(std::ostream &os, Tick ticks)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(ticks / tickUs),
                  static_cast<unsigned long long>(ticks % tickUs));
    os << buf;
}

void
writeProcessName(std::ostream &os, bool &first_event,
                 std::uint16_t node)
{
    if (!first_event)
        os << ",\n";
    first_event = false;
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
       << node << ",\"tid\":0,\"args\":{\"name\":\"";
    if (node == clientNode)
        os << "client";
    else
        os << "node" << node;
    os << "\"}}";
}

} // anonymous namespace

void
Tracer::writeChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first_event = true;

    // Process-name metadata, one per distinct node, in first-seen
    // order (deterministic: span order is recording order).
    std::vector<std::uint16_t> nodes;
    for (std::size_t i = 0; i < size(); ++i) {
        const std::uint16_t node = span(i).node;
        bool seen = false;
        for (const std::uint16_t n : nodes)
            seen = seen || n == node;
        if (!seen) {
            nodes.push_back(node);
            writeProcessName(os, first_event, node);
        }
    }

    for (std::size_t i = 0; i < size(); ++i) {
        const Span &s = span(i);
        if (!first_event)
            os << ",\n";
        first_event = false;

        os << "{\"ph\":\"X\",\"name\":\"" << stageName(s.stage)
           << "\",\"cat\":\"stage\",\"pid\":" << s.node
           << ",\"tid\":" << s.request << ",\"ts\":";
        writeTs(os, s.begin);
        os << ",\"dur\":";
        writeTs(os, s.end - s.begin);
        os << ",\"args\":{\"req\":" << s.request << ",\"arg\":"
           << s.arg;
        if (s.parent != noParent)
            os << ",\"parent\":" << s.parent;
        os << "}}";

        // Flow arrows carry the cross-node causality: an arrow
        // starts on each cluster Client envelope and lands on every
        // Attempt span sharing its request id (the failover hops).
        if (s.stage == Stage::Client) {
            os << ",\n{\"ph\":\"s\",\"name\":\"causal\",\"cat\":"
                  "\"flow\",\"id\":"
               << s.request << ",\"pid\":" << s.node << ",\"tid\":"
               << s.request << ",\"ts\":";
            writeTs(os, s.begin);
            os << "}";
        } else if (s.stage == Stage::Attempt) {
            os << ",\n{\"ph\":\"f\",\"bp\":\"e\",\"name\":"
                  "\"causal\",\"cat\":\"flow\",\"id\":"
               << s.request << ",\"pid\":" << s.node << ",\"tid\":"
               << s.request << ",\"ts\":";
            writeTs(os, s.begin);
            os << "}";
        }
    }
    os << "\n]}\n";
}

} // namespace mercury::trace
