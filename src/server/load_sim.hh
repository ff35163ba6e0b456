/**
 * @file
 * Open-loop load simulation: Poisson arrivals against one server
 * core, FIFO service, measured response-time distribution.
 *
 * The paper's TPS numbers are closed-loop (1/RTT); real SLAs are
 * about the latency distribution under an offered load. This module
 * produces the classic latency-vs-load curve and locates the knee,
 * i.e. how much of a node's nominal throughput is usable before the
 * sub-millisecond guarantee erodes.
 */

#ifndef MERCURY_SERVER_LOAD_SIM_HH
#define MERCURY_SERVER_LOAD_SIM_HH

#include <vector>

#include "server/server_model.hh"
#include "sim/sampler.hh"
#include "workload/workload.hh"

namespace mercury::server
{

/** Static configuration of a load experiment. */
struct LoadSimParams
{
    ServerModelParams node;
    std::uint32_t valueBytes = 64;
    double getFraction = 0.95;
    /** Measured requests per load point (after warmup). */
    unsigned requests = 400;
    unsigned warmup = 40;
    std::uint64_t seed = 3;

    /**
     * Optional windowed time-series sampler for run(): requests,
     * hit rate and windowed latency percentiles per sample window,
     * warmup included. Must be freshly constructed; run() registers
     * the channels, begins it at the first arrival and finishes it
     * before returning, so attach a new sampler per run(). Null (the
     * default) changes nothing.
     */
    stats::Sampler *sampler = nullptr;
};

/** One point of the latency-vs-load curve. */
struct LoadPoint
{
    double offeredTps = 0.0;
    double achievedTps = 0.0;
    double avgLatencyUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double subMsFraction = 0.0;
};

class LoadSimulation
{
  public:
    explicit LoadSimulation(const LoadSimParams &params);

    /** The node's closed-loop capacity (requests per second). */
    double capacity();

    /** Run one open-loop experiment at an offered rate. */
    LoadPoint run(double offered_tps);

    /** Attach (or detach with null) the sampler the next run() will
     * feed; see LoadSimParams::sampler for the contract. */
    void setSampler(stats::Sampler *sampler)
    {
        params_.sampler = sampler;
    }

  private:
    LoadSimParams params_;
    ServerModel node_;
    unsigned keys_ = 0;
    double capacity_ = 0.0;
};

} // namespace mercury::server

#endif // MERCURY_SERVER_LOAD_SIM_HH
