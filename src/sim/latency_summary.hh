/**
 * @file
 * Exact statistics of a latency sample.
 *
 * The open-loop drivers and the closed-loop measurement report the
 * same numbers over their exact samples (no histogram binning): the
 * mean, order statistics, and the share under the paper's
 * sub-millisecond service target (Sec. 6).
 */

#ifndef MERCURY_SIM_LATENCY_SUMMARY_HH
#define MERCURY_SIM_LATENCY_SUMMARY_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/contract.hh"
#include "sim/types.hh"

namespace mercury::stats
{

/** Sorts a latency sample once and reads exact statistics off it.
 * Every statistic of an empty sample is 0. */
class LatencySummary
{
  public:
    explicit LatencySummary(std::vector<Tick> samples)
        : sorted_(std::move(samples))
    {
        std::sort(sorted_.begin(), sorted_.end());
    }

    /** Mean in microseconds, summed in ascending order. */
    double
    meanUs() const
    {
        if (sorted_.empty())
            return 0.0;
        double sum = 0.0;
        for (const Tick latency : sorted_)
            sum += ticksToUs(latency);
        return sum / static_cast<double>(sorted_.size());
    }

    /** The sample at index floor(q * (n - 1)) in ascending order, in
     * microseconds. */
    double
    quantileUs(double q) const
    {
        MERCURY_EXPECTS(q >= 0.0 && q <= 1.0, "quantile ", q,
                        " outside [0, 1]");
        if (sorted_.empty())
            return 0.0;
        return ticksToUs(sorted_[static_cast<std::size_t>(
            q * static_cast<double>(sorted_.size() - 1))]);
    }

    /** Share of samples strictly under one millisecond. */
    double
    subMsFraction() const
    {
        if (sorted_.empty())
            return 0.0;
        const auto sub_ms =
            std::lower_bound(sorted_.begin(), sorted_.end(), tickMs) -
            sorted_.begin();
        return static_cast<double>(sub_ms) /
               static_cast<double>(sorted_.size());
    }

  private:
    std::vector<Tick> sorted_;
};

} // namespace mercury::stats

#endif // MERCURY_SIM_LATENCY_SUMMARY_HH
