/**
 * @file
 * Hierarchical statistics registry.
 *
 * Components own typed statistics (Counter, Scalar,
 * LatencyHistogram, Formula) that register themselves with a
 * StatGroup. Groups nest into a tree rooted at a Registry; the tree
 * can be dumped as one flat deterministic JSON object (the
 * golden-trace suite digests that output byte-for-byte), queried by
 * dotted path, and reset between measurement intervals.
 *
 * Recording is pure observation: no statistic consumes RNG state or
 * advances simulated time, so an instrumented run computes the same
 * timeline as one that never reads its registry.
 */

#ifndef MERCURY_SIM_STATS_HH
#define MERCURY_SIM_STATS_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace mercury::stats
{

class StatGroup;

/** Common name/description plumbing for all statistic types. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /**
     * Append this statistic's fields to a flat JSON object as
     * "<prefix><name>[::field]": value pairs, appended to @p out.
     * @p first carries the comma state across the whole object.
     * String-building (not streaming) so one pre-sized buffer can be
     * reused across the repeated dumps of a sweep loop.
     */
    virtual void formatJson(std::string &out, const std::string &prefix,
                            bool &first) const = 0;

    /** Zero out accumulated values. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A simple accumulating counter / gauge. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double amount) { _value += amount; return *this; }
    Scalar &operator-=(double amount) { _value -= amount; return *this; }
    Scalar &operator=(double value) { _value = value; return *this; }

    double value() const { return _value; }

    void formatJson(std::string &out, const std::string &prefix,
                    bool &first) const override;
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** An exact 64-bit event counter. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t amount)
    {
        _value += amount;
        return *this;
    }

    std::uint64_t value() const { return _value; }

    void formatJson(std::string &out, const std::string &prefix,
                    bool &first) const override;
    void reset() override { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Log2 latency histogram with sub-bucket precision (HdrHistogram
 * style) over unsigned 64-bit tick values.
 *
 * Values below 2^(precisionBits+1) are recorded exactly (one bucket
 * per value); larger values land in buckets whose width keeps the
 * relative error below 2^-precisionBits. Quantiles use nearest-rank
 * semantics and return the lowest value of the containing bucket, so
 * they are *exact* for any distribution within the exact range, and
 * within the relative-precision bound above it.
 *
 * All buckets are allocated at construction: record() is a shift,
 * an index computation, and a few integer adds -- it never allocates,
 * which the histogram unit tests assert.
 *
 * Values of maxValueBits bits or fewer are representable; anything
 * wider lands in a dedicated overflow bucket (quantiles falling into
 * it report the recorded maximum).
 */
class LatencyHistogram : public StatBase
{
  public:
    LatencyHistogram(StatGroup *parent, std::string name,
                     std::string desc, unsigned precision_bits = 7,
                     unsigned max_value_bits = 64);

    void record(std::uint64_t value, std::uint64_t count = 1);

    std::uint64_t count() const { return _count; }
    std::uint64_t totalSum() const { return _sum; }
    std::uint64_t minValue() const { return _count ? _min : 0; }
    std::uint64_t maxValue() const { return _max; }
    std::uint64_t overflowCount() const { return _overflow; }
    double mean() const
    {
        return _count ? static_cast<double>(_sum) /
                            static_cast<double>(_count)
                      : 0.0;
    }

    unsigned precisionBits() const { return precisionBits_; }
    unsigned maxValueBits() const { return maxValueBits_; }
    std::size_t bucketCount() const { return buckets_.size(); }

    /**
     * Nearest-rank p-quantile (p in [0,1]): the lowest value of the
     * bucket holding the ceil(p * count)-th smallest sample, clamped
     * to the recorded [min, max].
     */
    std::uint64_t percentile(double p) const;

    /** Fold another histogram of identical geometry into this one. */
    void merge(const LatencyHistogram &other);

    void formatJson(std::string &out, const std::string &prefix,
                    bool &first) const override;
    void reset() override;

  private:
    std::size_t
    indexFor(std::uint64_t value) const
    {
        const std::uint64_t half = std::uint64_t(1) << precisionBits_;
        const std::uint64_t sub = half << 1;
        if (value < sub)
            return static_cast<std::size_t>(value);
        const unsigned width =
            static_cast<unsigned>(std::bit_width(value));
        if (width > maxValueBits_)
            return buckets_.size() - 1;  // overflow bucket
        const unsigned shift = width - (precisionBits_ + 1);
        return static_cast<std::size_t>(
            sub + (shift - 1) * half + ((value >> shift) - half));
    }

    /** Lowest value mapping to bucket @p index. */
    std::uint64_t lowOf(std::size_t index) const;

    unsigned precisionBits_;
    unsigned maxValueBits_;
    /** Regular buckets plus one trailing overflow slot. */
    std::vector<std::uint64_t> buckets_;
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t _max = 0;
    std::uint64_t _overflow = 0;
};

/**
 * A derived statistic evaluated on demand: rates, ratios, and
 * bridges to counters owned elsewhere (e.g. the functional store's
 * atomic op counters).
 */
class Formula : public StatBase
{
  public:
    Formula(StatGroup *parent, std::string name, std::string desc,
            std::function<double()> fn);

    double value() const { return fn_ ? fn_() : 0.0; }

    void formatJson(std::string &out, const std::string &prefix,
                    bool &first) const override;
    /** Formulas have no state of their own. */
    void reset() override {}

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics belonging to one component.
 * Groups may nest; formatJson()/resetStats() walk the
 * subtree in registration order, so output is deterministic.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    /**
     * Append this subtree's statistics to a flat JSON object keyed
     * by full dotted path.
     */
    void formatJson(std::string &out, const std::string &prefix,
                    bool &first) const;

    /** Reset every statistic in this group and its children. */
    void resetStats();

    /**
     * Look up a statistic by dotted path relative to this group
     * (e.g. "dram.reads"); nullptr when absent.
     */
    const StatBase *find(std::string_view path) const;

    /** Look up a child group by dotted path; nullptr when absent. */
    const StatGroup *findGroup(std::string_view path) const;

  private:
    friend class StatBase;

    void addStat(StatBase *stat) { stats_.push_back(stat); }
    void addChild(StatGroup *child) { children_.push_back(child); }
    void removeChild(StatGroup *child);

    std::string _name;
    StatGroup *parent_;
    std::vector<StatBase *> stats_;
    std::vector<StatGroup *> children_;
};

/**
 * The root of a stats tree. Subsystems hang their groups off the
 * registry a harness hands them (ServerModelParams::statsParent et
 * al.); the harness dumps the whole tree as one JSON object whose
 * bytes are deterministic for a given build and seed.
 */
class Registry : public StatGroup
{
  public:
    explicit Registry(std::string name = "sim")
        : StatGroup(std::move(name))
    {}

    /** Write the flat {"path":value,...} object plus newline. The
     * text is built in a pre-sized buffer that the registry keeps
     * and reuses, so repeated --stats-json dumps in a sweep loop
     * stop paying reallocation-per-append. */
    void writeJson(std::ostream &os) const;

    /** Append the flat {"path":value,...} object plus newline. */
    void writeJson(std::string &out) const;

  private:
    /** Serializes dumps through the shared buffer. The stats tree
     * itself is single-writer by design (each sweep point owns its
     * own Registry); the buffer is the one piece of state a shared
     * root registry mutates on a *read* path, so it gets a lock. */
    mutable std::mutex jsonMutex_;
    /** Reused across dumps; capacity persists, contents do not.
     * Guarded by jsonMutex_. */
    mutable std::string jsonBuffer_;
};

} // namespace mercury::stats

#endif // MERCURY_SIM_STATS_HH
