/**
 * @file
 * Baseline servers for the Table 4 comparison: a state-of-the-art
 * 1.5U Xeon-class box running Memcached 1.4, stock 1.6, or the Bags
 * build (Wiggins & Langston), plus the TSSP accelerator row.
 *
 * Each software version's row takes the published deployment and
 * throughput (0.41 MTPS on 6 cores, 0.52 MTPS on 4, 3.15 MTPS on
 * 16) exactly as the paper cites them. Server wall power follows a
 * base + per-core + per-GB fit that reproduces the paper's three
 * baseline rows exactly.
 */

#ifndef MERCURY_BASELINE_BASELINE_HH
#define MERCURY_BASELINE_BASELINE_HH

#include <string>

namespace mercury::baseline
{

enum class MemcachedVersion { V14, V16, Bags };

/** Wall power of the baseline Xeon server: base + cores + DRAM.
 * Fitted to the paper's three baseline rows. */
double xeonServerPowerW(unsigned cores, double memory_gb);

/** One comparison row (Table 4 format). */
struct BaselineServer
{
    std::string name;
    unsigned cores = 0;
    double memoryGB = 0.0;
    double powerW = 0.0;
    double tps = 0.0;
    double bwGBs = 0.0;

    double tpsPerWatt() const { return tps / powerW; }
    double tpsPerGB() const { return tps / memoryGB; }
};

/** The published deployment for each version (cores, DRAM and
 * throughput as the paper lists them). */
BaselineServer memcachedBaseline(MemcachedVersion version);

/** The TSSP accelerator row (Lim et al., literature constants). */
BaselineServer tsspReference();

} // namespace mercury::baseline

#endif // MERCURY_BASELINE_BASELINE_HH
