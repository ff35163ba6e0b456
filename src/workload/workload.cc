#include "workload/workload.hh"

#include <cmath>
#include <cstdio>

#include "sim/contract.hh"

namespace mercury::workload
{

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    MERCURY_EXPECTS(n_ > 0, "zipf population must be positive");
    MERCURY_EXPECTS(theta_ > 0.0 && theta_ < 1.0,
                    "zipf theta must be in (0,1)");
    zetan_ = zeta(n_, theta_);
    zeta2Theta_ = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_),
                           1.0 - theta_)) /
           (1.0 - zeta2Theta_ / zetan_);
}

double
ZipfGenerator::zeta(std::uint64_t n, double theta) const
{
    // Exact for small n; integral approximation for large n keeps
    // construction O(1)-ish while staying within a percent.
    const std::uint64_t exact = std::min<std::uint64_t>(n, 10000);
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= exact; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    if (n > exact) {
        // Integral of x^-theta from `exact` to n.
        sum += (std::pow(static_cast<double>(n), 1.0 - theta) -
                std::pow(static_cast<double>(exact), 1.0 - theta)) /
               (1.0 - theta);
    }
    return sum;
}

std::uint64_t
ZipfGenerator::next(Rng &rng)
{
    // Gray et al., "Quickly Generating Billion-Record Synthetic
    // Databases" (SIGMOD '94).
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const double rank =
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_);
    const auto result = static_cast<std::uint64_t>(rank);
    return result >= n_ ? n_ - 1 : result;
}

ValueSizeDist
ValueSizeDist::fixed(std::uint32_t bytes)
{
    ValueSizeDist d;
    d.fixedBytes = bytes;
    return d;
}

WorkloadGenerator::WorkloadGenerator(const WorkloadParams &params)
    : params_(params), rng_(params.seed),
      zipf_(params.numKeys, params.zipfTheta)
{
    MERCURY_EXPECTS(params_.numKeys > 0, "workload needs keys");
    MERCURY_EXPECTS(params_.getFraction >= 0.0 &&
                    params_.getFraction <= 1.0,
                    "getFraction must be a probability");
}

std::string
WorkloadGenerator::keyFor(std::uint64_t key_id)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key:%016llx",
                  static_cast<unsigned long long>(key_id));
    return buf;
}

Request
WorkloadGenerator::next()
{
    Request request;
    request.op = rng_.nextBool(params_.getFraction) ? Request::Op::Get
                                                    : Request::Op::Set;
    request.keyId = params_.popularity == Popularity::Zipf
                        ? zipf_.next(rng_)
                        : rng_.nextInt(params_.numKeys);
    request.valueBytes = params_.valueSize.fixedBytes;
    return request;
}

PoissonArrivals::PoissonArrivals(double rate, std::uint64_t seed)
    : rate_(rate), rng_(seed)
{
    MERCURY_EXPECTS(rate_ > 0.0, "arrival rate must be positive");
}

Tick
PoissonArrivals::next(Tick now)
{
    const double gap_seconds = rng_.nextExponential(1.0 / rate_);
    const Tick gap = std::max<Tick>(1, secondsToTicks(gap_seconds));
    return now + gap;
}

} // namespace mercury::workload
