/**
 * @file
 * Workload generation: key popularity, value-size distributions,
 * GET/PUT mixes and arrival processes.
 *
 * The paper's evaluation sweeps fixed request sizes from 64 B to 1 MB
 * with GET-heavy mixes (Sec. 5.2), citing the Facebook workload
 * characterization of Atikoglu et al. for the claim that small GETs
 * dominate. This module provides those fixed-size streams, with
 * uniform or Zipf key popularity, for every experiment.
 */

#ifndef MERCURY_WORKLOAD_WORKLOAD_HH
#define MERCURY_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace mercury::workload
{

/** Zipf-distributed integers over [0, n) using Gray et al.'s
 * rejection-inversion-free approximation (precomputed zeta). */
class ZipfGenerator
{
  public:
    /**
     * @param n population size
     * @param theta skew in (0, 1); 0.99 matches common KV studies
     */
    ZipfGenerator(std::uint64_t n, double theta);

    /** Next rank, 0 = most popular. */
    std::uint64_t next(Rng &rng);

    std::uint64_t population() const { return n_; }
    double theta() const { return theta_; }

  private:
    double zeta(std::uint64_t n, double theta) const;

    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2Theta_;
};

/** How keys are chosen. */
enum class Popularity { Uniform, Zipf };

/** Value-size model: every value is exactly `fixedBytes` (the
 * paper's request-size sweep). */
struct ValueSizeDist
{
    std::uint32_t fixedBytes = 64;

    static ValueSizeDist fixed(std::uint32_t bytes);
};

/** One generated request. */
struct Request
{
    enum class Op : std::uint8_t { Get, Set };

    Op op;
    std::uint64_t keyId;
    std::uint32_t valueBytes;
};

/** Static configuration of a workload stream. */
struct WorkloadParams
{
    std::uint64_t numKeys = 100000;
    Popularity popularity = Popularity::Uniform;
    double zipfTheta = 0.99;
    ValueSizeDist valueSize = ValueSizeDist::fixed(64);
    /** Fraction of requests that are GETs. ETC is ~30 GETs per SET. */
    double getFraction = 0.968;
    std::uint64_t seed = 42;
};

/** Deterministic request stream. */
class WorkloadGenerator
{
  public:
    explicit WorkloadGenerator(const WorkloadParams &params);

    Request next();

    /** Canonical key string for a key id. */
    static std::string keyFor(std::uint64_t key_id);

    const WorkloadParams &params() const { return params_; }

  private:
    WorkloadParams params_;
    Rng rng_;
    ZipfGenerator zipf_;
};

/** Inter-arrival time model for open-loop load. */
class PoissonArrivals
{
  public:
    /** @param rate requests per second */
    PoissonArrivals(double rate, std::uint64_t seed);

    /** Next arrival, strictly after @p now. */
    Tick next(Tick now);

    double rate() const { return rate_; }

  private:
    double rate_;
    Rng rng_;
};

} // namespace mercury::workload

#endif // MERCURY_WORKLOAD_WORKLOAD_HH
