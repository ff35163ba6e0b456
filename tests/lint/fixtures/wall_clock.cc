/**
 * @file
 * mercury_lint fixture: the wall-clock rule.
 *
 * Host clock reads outside the whitelisted bench files break the
 * determinism contract (results must be a pure function of seed and
 * config). Expected diagnostics are pinned in wall_clock.expected;
 * keep line numbers stable when editing.
 */

#include <chrono>
#include <ctime>

#ifndef MERCURY_EVENT_PROFILE
#define MERCURY_EVENT_PROFILE 0
#endif

long long
hostMonotonicNs()
{
    const auto t0 = std::chrono::steady_clock::now();  // finding
    return t0.time_since_epoch().count();
}

long long
hostWallSeconds()
{
    return static_cast<long long>(time(nullptr));  // finding
}

// A comment mentioning std::chrono::steady_clock must not trip the
// rule: the engine matches masked code, not comments.

#if MERCURY_EVENT_PROFILE
long long
profiledNow()
{
    // Finding: a preprocessor guard does not whitelist host timing.
    return std::chrono::steady_clock::now().time_since_epoch().count();
}
#endif

long long
benchHarnessClock()
{
    // Clean: explicitly waived host timing (e.g. a harness summary).
    const auto wall =
        std::chrono::system_clock::now();  // lint: allow(wall-clock)
    return wall.time_since_epoch().count();
}
