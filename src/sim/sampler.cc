#include "sim/sampler.hh"

#include <cstdio>

#include "sim/contract.hh"
#include "sim/json.hh"

namespace mercury::stats
{

Sampler::Sampler(Tick interval, std::string label)
    : interval_(interval), label_(std::move(label)),
      histParent_("sampler")
{
    MERCURY_EXPECTS(interval_ > 0, "sampler window must be non-empty");
    line_.reserve(256);
}

std::size_t
Sampler::addChannel(Kind kind, std::string name)
{
    MERCURY_EXPECTS(!began_,
                    "sampler channels must be registered before "
                    "begin(): ", name);
    Channel channel;
    channel.kind = kind;
    channel.name = std::move(name);
    channels_.push_back(std::move(channel));
    return channels_.size() - 1;
}

std::size_t
Sampler::addCounter(std::string name)
{
    return addChannel(Kind::Count, std::move(name));
}

std::size_t
Sampler::addRatio(std::string name, std::size_t numerator,
                  std::size_t denominator, double when_empty)
{
    MERCURY_EXPECTS(numerator < channels_.size() &&
                        denominator < channels_.size(),
                    "ratio channel references unknown channels");
    MERCURY_EXPECTS(channels_[numerator].kind != Kind::Ratio &&
                        channels_[denominator].kind != Kind::Ratio &&
                        channels_[numerator].kind != Kind::Latency &&
                        channels_[denominator].kind != Kind::Latency,
                    "ratio channels must reference counter channels");
    const std::size_t index =
        addChannel(Kind::Ratio, std::move(name));
    channels_[index].a = numerator;
    channels_[index].b = denominator;
    channels_[index].whenEmpty = when_empty;
    return index;
}

std::size_t
Sampler::addLatency(std::string name, unsigned precision_bits)
{
    const std::size_t index =
        addChannel(Kind::Latency, std::move(name));
    channels_[index].a = hists_.size();
    hists_.push_back(std::make_unique<LatencyHistogram>(
        &histParent_, channels_[index].name,
        "interval histogram of " + channels_[index].name,
        precision_bits));
    return index;
}

void
Sampler::begin(Tick origin)
{
    MERCURY_EXPECTS(!began_, "sampler already begun");
    began_ = true;
    origin_ = origin;
    windowStart_ = origin;
    windowIndex_ = 0;
}

void
Sampler::count(std::size_t channel, std::uint64_t delta)
{
    MERCURY_EXPECTS(channel < channels_.size() &&
                        channels_[channel].kind == Kind::Count,
                    "count() on a non-counter sampler channel");
    channels_[channel].a += delta;
}

void
Sampler::recordLatency(std::size_t channel, std::uint64_t value)
{
    MERCURY_EXPECTS(channel < channels_.size() &&
                        channels_[channel].kind == Kind::Latency,
                    "recordLatency() on a non-latency channel");
    hists_[channels_[channel].a]->record(value);
}

void
Sampler::closeWindow()
{
    // Pass 1: materialize every counter-like channel's window value
    // so ratio channels can reference them regardless of order.
    for (Channel &channel : channels_) {
        switch (channel.kind) {
          case Kind::Count:
            channel.window = channel.a;
            channel.a = 0;
            break;
          case Kind::Ratio:
          case Kind::Latency:
            break;
        }
    }

    // Pass 2: emit the line. Fixed field order (window bookkeeping
    // first, then channels in registration order) and fixed numeric
    // formats keep the bytes deterministic for golden pinning.
    line_.clear();
    line_ += '{';
    bool first = true;
    if (!label_.empty()) {
        json::appendKey(line_, first, "label");
        line_ += '"';
        json::appendEscaped(line_, label_);
        line_ += '"';
    }
    json::appendKey(line_, first, "window");
    json::appendUint(line_, windowIndex_);
    json::appendKey(line_, first, "t0");
    json::appendUint(line_, windowStart_);
    json::appendKey(line_, first, "t1");
    json::appendUint(line_, windowStart_ + interval_);

    for (Channel &channel : channels_) {
        switch (channel.kind) {
          case Kind::Count:
            json::appendKey(line_, first, channel.name);
            json::appendUint(line_, channel.window);
            break;
          case Kind::Ratio: {
            const std::uint64_t num = channels_[channel.a].window;
            const std::uint64_t den = channels_[channel.b].window;
            const double value =
                den ? static_cast<double>(num) /
                          static_cast<double>(den)
                    : channel.whenEmpty;
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.6f", value);
            json::appendKey(line_, first, channel.name);
            line_ += buf;
            break;
          }
          case Kind::Latency: {
            LatencyHistogram &hist = *hists_[channel.a];
            json::appendKey(line_, first, channel.name, "_count");
            json::appendUint(line_, hist.count());
            json::appendKey(line_, first, channel.name, "_p50");
            json::appendUint(line_, hist.percentile(0.50));
            json::appendKey(line_, first, channel.name, "_p99");
            json::appendUint(line_, hist.percentile(0.99));
            json::appendKey(line_, first, channel.name, "_p999");
            json::appendUint(line_, hist.percentile(0.999));
            hist.reset();
            break;
          }
        }
    }
    line_ += "}\n";
    out_ += line_;

    windowStart_ += interval_;
    ++windowIndex_;
    ++windowsClosed_;
}

void
Sampler::advanceTo(Tick now)
{
    MERCURY_EXPECTS(began_, "sampler used before begin()");
    MERCURY_EXPECTS(!finished_, "sampler used after finish()");
    MERCURY_EXPECTS(now >= origin_,
                    "sampler moved before its origin: ", now);
    while (now >= windowStart_ + interval_)
        closeWindow();
}

void
Sampler::finish(Tick end)
{
    if (finished_)
        return;
    MERCURY_EXPECTS(began_, "sampler finished before begin()");
    advanceTo(end);
    // The trailing partial window is emitted iff simulated time
    // actually entered it, so a run ending exactly on a boundary
    // produces no empty tail line.
    if (end > windowStart_)
        closeWindow();
    finished_ = true;
}

} // namespace mercury::stats
