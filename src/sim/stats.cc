#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace mercury::stats
{

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    mercury_assert(parent != nullptr,
                   "statistic '", _name, "' needs a parent group");
    parent->addStat(this);
}

void
Scalar::formatJson(std::string &out, const std::string &prefix,
                   bool &first) const
{
    json::appendKey(out, first, prefix, name());
    json::appendDouble(out, _value);
}

void
Counter::formatJson(std::string &out, const std::string &prefix,
                    bool &first) const
{
    json::appendKey(out, first, prefix, name());
    json::appendUint(out, _value);
}

LatencyHistogram::LatencyHistogram(StatGroup *parent, std::string name,
                                   std::string desc,
                                   unsigned precision_bits,
                                   unsigned max_value_bits)
    : StatBase(parent, std::move(name), std::move(desc)),
      precisionBits_(precision_bits), maxValueBits_(max_value_bits)
{
    mercury_assert(precisionBits_ >= 1 && precisionBits_ <= 20,
                   "latency histogram precision out of range");
    mercury_assert(maxValueBits_ > precisionBits_ && maxValueBits_ <= 64,
                   "latency histogram max-value bits out of range");
    const std::size_t half = std::size_t(1) << precisionBits_;
    const std::size_t regular =
        2 * half + (maxValueBits_ - (precisionBits_ + 1)) * half;
    buckets_.assign(regular + 1, 0);  // + overflow slot
}

std::uint64_t
LatencyHistogram::lowOf(std::size_t index) const
{
    const std::uint64_t half = std::uint64_t(1) << precisionBits_;
    const std::uint64_t sub = half << 1;
    if (index < sub)
        return index;
    const std::uint64_t r = index - sub;
    const unsigned shift = static_cast<unsigned>(r / half) + 1;
    const std::uint64_t subIdx = half + r % half;
    return subIdx << shift;
}

void
LatencyHistogram::record(std::uint64_t value, std::uint64_t count)
{
    const std::size_t index = indexFor(value);
    buckets_[index] += count;
    if (index == buckets_.size() - 1)
        _overflow += count;
    _count += count;
    _sum += value * count;
    _min = std::min(_min, value);
    _max = std::max(_max, value);
}

std::uint64_t
LatencyHistogram::percentile(double p) const
{
    mercury_assert(p >= 0.0 && p <= 1.0, "percentile requires p in [0,1]");
    if (_count == 0)
        return 0;
    if (p <= 0.0)
        return _min;

    auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(_count)));
    rank = std::clamp<std::uint64_t>(rank, 1, _count);
    if (rank == _count)
        return _max;  // the last rank is the recorded maximum

    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cumulative += buckets_[i];
        if (cumulative >= rank) {
            if (i == buckets_.size() - 1)
                return _max;  // overflow bucket: best answer is max
            return std::clamp(lowOf(i), _min, _max);
        }
    }
    return _max;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    mercury_assert(precisionBits_ == other.precisionBits_ &&
                       maxValueBits_ == other.maxValueBits_,
                   "cannot merge latency histograms of different "
                   "geometry");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    _count += other._count;
    _sum += other._sum;
    _overflow += other._overflow;
    _min = std::min(_min, other._min);
    _max = std::max(_max, other._max);
}

void
LatencyHistogram::formatJson(std::string &out, const std::string &prefix,
                             bool &first) const
{
    json::appendKey(out, first, prefix, name(), "::count");
    json::appendUint(out, _count);
    json::appendKey(out, first, prefix, name(), "::sum");
    json::appendUint(out, _sum);
    json::appendKey(out, first, prefix, name(), "::min");
    json::appendUint(out, minValue());
    json::appendKey(out, first, prefix, name(), "::max");
    json::appendUint(out, _max);
    json::appendKey(out, first, prefix, name(), "::p50");
    json::appendUint(out, percentile(0.50));
    json::appendKey(out, first, prefix, name(), "::p99");
    json::appendUint(out, percentile(0.99));
    json::appendKey(out, first, prefix, name(), "::p999");
    json::appendUint(out, percentile(0.999));
    json::appendKey(out, first, prefix, name(), "::overflow");
    json::appendUint(out, _overflow);
}

void
LatencyHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    _count = 0;
    _sum = 0;
    _min = std::numeric_limits<std::uint64_t>::max();
    _max = 0;
    _overflow = 0;
}

Formula::Formula(StatGroup *parent, std::string name, std::string desc,
                 std::function<double()> fn)
    : StatBase(parent, std::move(name), std::move(desc)),
      fn_(std::move(fn))
{
}

void
Formula::formatJson(std::string &out, const std::string &prefix,
                    bool &first) const
{
    json::appendKey(out, first, prefix, name());
    json::appendDouble(out, value());
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : _name(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->addChild(this);
}

StatGroup::~StatGroup()
{
    if (parent_)
        parent_->removeChild(this);
}

void
StatGroup::removeChild(StatGroup *child)
{
    auto it = std::find(children_.begin(), children_.end(), child);
    if (it != children_.end())
        children_.erase(it);
}

void
StatGroup::formatJson(std::string &out, const std::string &prefix,
                      bool &first) const
{
    const std::string full =
        prefix.empty() ? _name + "." : prefix + _name + ".";
    for (const auto *stat : stats_)
        stat->formatJson(out, full, first);
    for (const auto *child : children_)
        child->formatJson(out, full, first);
}

void
StatGroup::resetStats()
{
    for (auto *stat : stats_)
        stat->reset();
    for (auto *child : children_)
        child->resetStats();
}

const StatGroup *
StatGroup::findGroup(std::string_view path) const
{
    const StatGroup *group = this;
    while (!path.empty()) {
        const std::size_t dot = path.find('.');
        const std::string_view head =
            dot == std::string_view::npos ? path : path.substr(0, dot);
        path = dot == std::string_view::npos ? std::string_view{}
                                             : path.substr(dot + 1);
        const StatGroup *next = nullptr;
        for (const auto *child : group->children_) {
            if (child->_name == head) {
                next = child;
                break;
            }
        }
        if (!next)
            return nullptr;
        group = next;
    }
    return group;
}

const StatBase *
StatGroup::find(std::string_view path) const
{
    const std::size_t dot = path.rfind('.');
    const StatGroup *group = this;
    std::string_view leaf = path;
    if (dot != std::string_view::npos) {
        group = findGroup(path.substr(0, dot));
        leaf = path.substr(dot + 1);
    }
    if (!group)
        return nullptr;
    for (const auto *stat : group->stats_) {
        if (stat->name() == leaf)
            return stat;
    }
    return nullptr;
}

void
Registry::writeJson(std::string &out) const
{
    out += '{';
    bool first = true;
    formatJson(out, "", first);
    out += "}\n";
}

void
Registry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(jsonMutex_);
    // clear() keeps the buffer's capacity, so after the first dump a
    // sweep loop formats into already-sized storage.
    jsonBuffer_.clear();
    if (jsonBuffer_.capacity() < 4096)
        jsonBuffer_.reserve(4096);
    writeJson(jsonBuffer_);
    os.write(jsonBuffer_.data(),
             static_cast<std::streamsize>(jsonBuffer_.size()));
}

} // namespace mercury::stats
