/**
 * @file
 * Fundamental simulation types and time-unit helpers.
 *
 * The simulator measures time in integer ticks, where one tick is one
 * picosecond. Picosecond resolution lets us express sub-nanosecond
 * device parameters (e.g. DRAM port transfer slots) without rounding,
 * while a 64-bit tick counter still covers more than 100 days of
 * simulated time.
 */

#ifndef MERCURY_SIM_TYPES_HH
#define MERCURY_SIM_TYPES_HH

#include <cstdint>

namespace mercury
{

/** Simulated time, in picoseconds. */
using Tick = std::uint64_t;

/** A simulated physical address. */
using Addr = std::uint64_t;

/** A counter of things (requests, instructions, bytes...). */
using Counter = std::uint64_t;

/** Ticks per common time units. */
constexpr Tick tickPs = 1;
constexpr Tick tickNs = 1000 * tickPs;
constexpr Tick tickUs = 1000 * tickNs;
constexpr Tick tickMs = 1000 * tickUs;
constexpr Tick tickSec = 1000 * tickMs;

/** The largest representable tick; used as an "infinite" deadline. */
constexpr Tick maxTick = ~Tick(0);

/** Convert a floating-point duration in seconds to ticks. */
constexpr Tick
secondsToTicks(double seconds)
{
    return static_cast<Tick>(seconds * static_cast<double>(tickSec));
}

/** Convert ticks to floating-point seconds. */
constexpr double
ticksToSeconds(Tick ticks)
{
    return static_cast<double>(ticks) / static_cast<double>(tickSec);
}

/** Convert ticks to floating-point microseconds. */
constexpr double
ticksToUs(Tick ticks)
{
    return static_cast<double>(ticks) / static_cast<double>(tickUs);
}

/** Size constants. */
constexpr std::uint64_t kiB = 1024;
constexpr std::uint64_t miB = 1024 * kiB;
constexpr std::uint64_t giB = 1024 * miB;

} // namespace mercury

#endif // MERCURY_SIM_TYPES_HH
