/**
 * @file
 * Deterministic pseudo-random number generation for simulation.
 *
 * A self-contained xoshiro256** implementation is used rather than
 * std::mt19937 so that streams are identical across standard-library
 * implementations, which keeps regression outputs stable.
 */

#ifndef MERCURY_SIM_RANDOM_HH
#define MERCURY_SIM_RANDOM_HH

#include <cstdint>

namespace mercury
{

/**
 * xoshiro256** generator with splitmix64 seeding.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also
 * be plugged into <random> distributions when convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value. */
    result_type operator()() { return next(); }

    std::uint64_t next();

    /** Uniform integer in [0, bound), bias-free via rejection. */
    std::uint64_t nextInt(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** True with the given probability. */
    bool nextBool(double probability);

    /** Exponentially distributed value with the given mean. */
    double nextExponential(double mean);

    /** Re-seed the generator deterministically. */
    void seed(std::uint64_t seed);

  private:
    std::uint64_t state_[4];
};

} // namespace mercury

#endif // MERCURY_SIM_RANDOM_HH
