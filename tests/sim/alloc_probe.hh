/**
 * @file
 * Allocation probe for zero-allocation hot-path tests.
 *
 * alloc_probe.cc defines replacement global operator new/delete
 * (link it once per binary) that bump this counter; any test in the
 * binary can read it around a hot path to prove the path never
 * allocates.
 */

#ifndef MERCURY_TESTS_SIM_ALLOC_PROBE_HH
#define MERCURY_TESTS_SIM_ALLOC_PROBE_HH

#include <atomic>
#include <cstdint>

extern std::atomic<std::uint64_t> mercuryAllocCalls;

#endif // MERCURY_TESTS_SIM_ALLOC_PROBE_HH
