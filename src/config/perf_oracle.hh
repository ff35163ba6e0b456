/**
 * @file
 * Measures per-core performance inputs for the design explorer by
 * running the single-core server timing model, with memoization so
 * benches can sweep many design points cheaply.
 */

#ifndef MERCURY_CONFIG_PERF_ORACLE_HH
#define MERCURY_CONFIG_PERF_ORACLE_HH

#include "config/explorer.hh"
#include "server/server_model.hh"

namespace mercury::config
{

struct OracleOptions
{
    static constexpr Tick dramLatency = 10 * tickNs;
    static constexpr Tick flashReadLatency = 10 * tickUs;
    /** Requests timed per measured size. */
    static constexpr unsigned samples = 12;
    /** Datapath the modeled cores run (kernel vs bypass, batching,
     * NIC GET cache). nicCacheEntries == 0 with stack.nicCacheMB > 0
     * derives the entry count from the SRAM budget. */
    net::DatapathParams datapath{};
};

/** Build the server-model parameters corresponding to one stack
 * configuration (per-core view). */
server::ServerModelParams
serverParamsFor(const physical::StackConfig &stack,
                const OracleOptions &options = {});

/**
 * Measure 64 B GET throughput and peak per-core bandwidth for a
 * stack configuration. Results are memoized per distinct
 * configuration for the lifetime of the process.
 */
PerCorePerf
measurePerCorePerf(const physical::StackConfig &stack,
                   const OracleOptions &options = {});

} // namespace mercury::config

#endif // MERCURY_CONFIG_PERF_ORACLE_HH
