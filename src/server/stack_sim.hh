/**
 * @file
 * Multi-core stack simulation.
 *
 * The paper scales single-core round-trip times linearly to the
 * stack and server level (Sec. 5.3), arguing that per-core Memcached
 * instances avoid software contention and that 16 memory ports keep
 * hardware contention negligible (two cores per port at n=32). This
 * module checks that assumption mechanistically: n cores run
 * closed-loop request streams against ONE shared stack -- shared
 * DRAM ports or flash channels and the stack's single 10GbE port --
 * and the aggregate is compared to n x single-core throughput.
 */

#ifndef MERCURY_SERVER_STACK_SIM_HH
#define MERCURY_SERVER_STACK_SIM_HH

#include <memory>
#include <vector>

#include "server/server_model.hh"

namespace mercury::server
{

/** Static configuration of a stack simulation. */
struct StackSimParams
{
    /** Per-core configuration (sliceBase is assigned internally). */
    ServerModelParams node;
    unsigned cores = 8;
    std::uint32_t valueBytes = 64;
    /** Measured requests per core (after one warmup round). */
    unsigned requestsPerCore = 24;
    /** GET fraction of the measured mix. */
    double getFraction = 1.0;
};

/** Outcome of a stack simulation. */
struct StackSimResult
{
    double aggregateTps = 0.0;
    double perCoreTps = 0.0;
    /** Single-core throughput x cores (the paper's assumption). */
    double linearPredictionTps = 0.0;
    /** aggregate / prediction; 1.0 = perfectly linear. */
    double scalingEfficiency = 0.0;
    /** Utilization of the stack's 10GbE port during the run. */
    double nicUtilization = 0.0;
};

class StackSimulation
{
  public:
    explicit StackSimulation(const StackSimParams &params);

    /** Run the closed-loop experiment and report scaling. */
    StackSimResult run();

    unsigned cores() const { return params_.cores; }

  private:
    /** Slice of the stack address space owned by core i. */
    Addr sliceBaseFor(unsigned core) const;

    StackSimParams params_;

    // Shared stack devices. Every core shares one c2s_/s2c_ pair
    // (the kernel softirq path).
    std::unique_ptr<mem::DramModel> dram_;
    std::unique_ptr<mem::FlashController> flash_;
    std::unique_ptr<net::NetworkPath> c2s_;
    std::unique_ptr<net::NetworkPath> s2c_;

    std::vector<std::unique_ptr<ServerModel>> cores_;
    std::unique_ptr<ServerModel> reference_;
};

} // namespace mercury::server

#endif // MERCURY_SERVER_STACK_SIM_HH
