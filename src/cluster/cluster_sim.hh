/**
 * @file
 * Cluster timing simulation: a consistent-hash ring of simulated
 * server nodes under an open-loop workload.
 *
 * Sec. 3.8 argues that many small physical nodes reduce DHT
 * resource contention. This simulation makes that quantitative:
 * requests with a configurable key-popularity skew are routed over
 * the ring onto per-node timing models, so hot-node queueing and
 * its effect on cluster tail latency emerge.
 */

#ifndef MERCURY_CLUSTER_CLUSTER_SIM_HH
#define MERCURY_CLUSTER_CLUSTER_SIM_HH

#include <memory>
#include <vector>

#include "cluster/ring.hh"
#include "server/server_model.hh"
#include "sim/fault.hh"
#include "sim/sampler.hh"
#include "sim/trace.hh"
#include "workload/workload.hh"

namespace mercury::cluster
{

/**
 * Fault configuration. `enabled` (off by default) switches on the
 * random fault sources only: per-node packet loss, per-node injector
 * forks and the Poisson crash schedule. A disabled run draws nothing
 * from the injector. The client's timeout, retry and backoff policy
 * below applies either way, as do plans scheduled explicitly on
 * ClusterSim::injector().
 */
struct ClusterFaultParams
{
    bool enabled = false;

    /** Per-segment wire loss probability on every node's paths. */
    double packetLossProbability = 0.0;

    /** Poisson rate of whole-node crashes, cluster-wide. */
    double nodeCrashesPerSecond = 0.0;

    /** Downtime before a crashed node restarts (cold cache). */
    Tick nodeDowntime = 20 * tickMs;

    /** Client-side wait before declaring an attempt dead. Real
     * memcached clients default to 1-3 s; latency-sensitive
     * deployments tune this to a few ms. */
    Tick requestTimeout = 2 * tickMs;

    /** Retries after the first attempt, each against the next node
     * in ring order (client failover). */
    unsigned maxRetries = 3;

    /** First retry backoff; doubles per attempt. */
    Tick backoffBase = 200 * tickUs;

    /** Backoff jitter: each wait is scaled by a uniform factor in
     * [1-j, 1+j] to decorrelate client retry storms. */
    static constexpr double backoffJitter = 0.2;

    /** Seed of the fault RNG stream (independent of the workload). */
    std::uint64_t seed = 0xfa17;
};

/**
 * Fault-tolerance and graceful-degradation knobs of the one client
 * walk. Each applies whether or not fault injection is enabled, and
 * they are orthogonal: any combination is valid. All defaults are
 * "off", giving the unreplicated, unhedged, unbudgeted, shed-nothing
 * client.
 */
struct ClusterResilienceParams
{
    /**
     * Replicas per key: each key lives on the first R distinct nodes
     * of its ring order. Writes go to every up replica in parallel
     * (write-all); down replicas get a hinted write replayed when
     * they restart, so they come back warm instead of cold. Reads
     * are served by the primary replica (read-one) with read-through
     * refill on a miss. 1 = the classic unreplicated cluster.
     */
    unsigned replicationFactor = 1;

    /** Spread each key's replica set across distinct racks (needs
     * ClusterSimParams::racks >= 2) so one rack's correlated crash
     * cannot take out a whole replica set. */
    bool rackAwareReplicas = false;

    /**
     * Hedged reads: when the primary replica has not answered a GET
     * by the hedge delay, fire a second attempt at another up
     * replica; the first answer wins and the loser is cancelled
     * (its result is discarded and nothing is refilled from it).
     * Needs replicationFactor >= 2 -- only replicas hold the data a
     * hedge could serve. A hedged client also rescues a GET whose
     * primary is down without waiting the full request timeout: the
     * hedge fires at the hedge delay as usual.
     */
    bool hedgedReads = false;

    /** The hedge fires when the primary is slower than this
     * quantile of observed attempt service times. */
    static constexpr double hedgeQuantile = 0.95;

    /** Floor on the hedge delay; also used verbatim until
     * hedgeWarmup attempt samples have been observed. */
    static constexpr Tick hedgeFloor = 300 * tickUs;

    /** Attempt-latency samples needed before the quantile (rather
     * than hedgeFloor) drives the hedge delay. */
    static constexpr unsigned hedgeWarmup = 32;

    /**
     * Retry budget: retries across the run may not exceed this
     * fraction of requests issued so far (Finagle-style). A request
     * that wants to retry once the budget is spent gives up instead
     * (counted as failed, not timed out), bounding retry storms.
     * 0 disables the budget (retries limited only by maxRetries).
     */
    double retryBudgetFraction = 0.0;

    /**
     * Per-node admission control: when a node's queue delay (time
     * between a request's arrival at the node and the node being
     * free to serve it) exceeds sloQueueDelay, the node sheds the
     * request with a fast "busy" refusal instead of queueing it.
     * Shed requests are a distinct outcome class -- the client gets
     * a prompt negative answer, not a timeout -- so overload
     * degrades throughput instead of collapsing the tail.
     */
    bool admissionControl = false;

    /** Queue-delay SLO threshold beyond which a node sheds. */
    Tick sloQueueDelay = 2 * tickMs;

    /** Time to deliver the "busy" refusal (network + a queue-front
     * check; the store is never touched). */
    static constexpr Tick shedResponseTime = 20 * tickUs;
};

/** Static configuration of a cluster experiment. */
struct ClusterSimParams
{
    /** Per-node configuration. */
    server::ServerModelParams node;
    unsigned nodes = 8;
    /** Ring points per node. */
    static constexpr unsigned virtualNodes = 64;

    /** Key space and popularity. */
    std::uint64_t numKeys = 4000;
    workload::Popularity popularity = workload::Popularity::Zipf;
    double zipfTheta = 0.99;
    std::uint32_t valueBytes = 64;
    double getFraction = 0.95;

    /** Measured requests (after warmup). */
    unsigned requests = 3000;
    unsigned warmup = 300;
    std::uint64_t seed = 17;

    /** Racks the nodes are striped across (node i sits in rack
     * i % racks); 0 or 1 means no rack structure. Scheduled fault
     * plans can then crash a whole rack, and rackAwareReplicas
     * spreads replica sets across racks. */
    unsigned racks = 0;

    ClusterFaultParams faults{};

    ClusterResilienceParams resilience{};

    /** Window for minWindowAvailability: when nonzero, run() tracks
     * per-window availability over the full run (warmup included)
     * and reports the worst window, the "did the bad day ever take
     * us below the SLO" number. 0 skips it. */
    Tick availabilityWindow = 0;

    /**
     * Optional windowed time-series sampler. When non-null, run()
     * registers its recovery-curve channels (requests, availability,
     * hit rate, windowed latency percentiles, fault counters) on it,
     * begins it at the run's time origin, and feeds it every request
     * -- warmup included, so the emitted trajectory covers the full
     * timeline. The sampler must be freshly constructed (channels
     * not yet frozen); ClusterSim finishes it before run() returns.
     * Null (the default) skips all of it: sampling is pure
     * observation and a sampled run computes the exact same result.
     */
    stats::Sampler *sampler = nullptr;

    /**
     * Optional request tracer for cross-node spans: a Client
     * envelope per request (node id trace::clientNode), an Attempt
     * span per client attempt (carrying the serving node's id and
     * the client request as causal parent), Backoff spans between
     * failed attempts, and the per-node ServerModel stage spans
     * recorded under the attempt's context. Null (the default)
     * records nothing.
     */
    trace::Tracer *tracer = nullptr;
};

/** Outcome of one cluster run. */
struct ClusterSimResult
{
    double offeredTps = 0.0;
    double avgLatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double subMsFraction = 0.0;
    /** Share of requests landing on the busiest node. */
    double hottestNodeShare = 0.0;

    // --- Fault-mode outcomes (defaults describe a clean run) --------

    double p999LatencyUs = 0.0;
    /** ok / requests: the fraction of measured requests answered. */
    double availability = 1.0;
    /** Worst per-window availability over the full run (warmup
     * included); 1.0 unless availabilityWindow was set. */
    double minWindowAvailability = 1.0;
    /** GET hit rate over the measured window. */
    double hitRate = 1.0;
    /** GET hit rate over the recovery window following each cold
     * restart; climbs back toward hitRate as clients re-fill. */
    double postRestartHitRate = 1.0;

    // --- Request outcome classes ------------------------------------
    //
    // Every measured request lands in exactly one class; the sum is
    // checked against `requests` by an always-on contract at the end
    // of run(). A new class must be added to accountedRequests() (the
    // result-class lint rule enforces this) and to the availability
    // math of every consumer.

    /** Measured requests issued (the denominator of the classes). */
    std::uint64_t requests = 0;
    /** Answered within the retry policy. */
    std::uint64_t ok = 0;  ///< [outcome]
    /** Gave up with every attempt timed out. */
    std::uint64_t timeouts = 0;  ///< [outcome]
    /** Gave up early: the retry budget was exhausted. */
    std::uint64_t failedRequests = 0;  ///< [outcome]
    /** Refused by per-node admission control (a fast "busy" answer,
     * deliberately distinct from a timeout). */
    std::uint64_t shed = 0;  ///< [outcome]

    /** Sum of the outcome classes; must equal requests. */
    std::uint64_t
    accountedRequests() const
    {
        return ok + timeouts + failedRequests + shed;
    }

    // --- Attempt-level diagnostics ----------------------------------

    /** Individual attempts that timed out against a dead node (a
     * request that eventually got served still counts its dead-end
     * attempts here). */
    std::uint64_t attemptTimeouts = 0;
    std::uint64_t retries = 0;
    /** Hedged second attempts fired / won the race. */
    std::uint64_t hedges = 0;
    std::uint64_t hedgeWins = 0;
    /** Writes queued for a down replica / replayed at its restart. */
    std::uint64_t hintsQueued = 0;
    std::uint64_t hintsReplayed = 0;
    /** Replica misses re-filled by the read-through path. */
    std::uint64_t readRepairs = 0;
    /** Peak simultaneously outstanding requests on any single node. */
    std::uint64_t maxOutstanding = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t netDrops = 0;
    std::uint64_t netRetransmits = 0;
    /** FaultInjector::timelineDigest() after the run. */
    std::uint64_t faultTimelineDigest = 0;
};

class ClusterSim
{
  public:
    explicit ClusterSim(const ClusterSimParams &params);

    /** Pre-load every key onto its replica set (its ring owner
     * when unreplicated). */
    void populate();

    /** Run at an offered cluster-wide request rate. */
    ClusterSimResult run(double offered_tps);

    /**
     * The simulated tick run() will use as its time origin
     * (populates first). Fault plans meant to fire mid-run schedule
     * relative to this -- absolute ticks smaller than it all fire at
     * the first arrival.
     */
    Tick timeOrigin();

    /** Sum of single-node closed-loop capacities (upper bound). */
    double aggregateCapacity();

    std::size_t nodes() const { return nodes_.size(); }

    /** The fault injector driving this sim (inspect the timeline,
     * or schedule explicit crash plans before run()). */
    fault::FaultInjector &injector() { return injector_; }
    const fault::FaultInjector &injector() const { return injector_; }

  private:
    /** Node index of a name (fault-plan targets arrive as names). */
    std::size_t indexOfName(const std::string &name) const;

    /** Master timeline digest chained through every per-node
     * injector fork, in node-index order. */
    std::uint64_t faultDigest() const;

    /** Replicas clamped to the cluster size (>= 1). */
    unsigned effectiveReplication() const;

    /** Failover/replica order for a key, as node indices: plain
     * ring successors, or the rack-spread variant when configured. */
    std::vector<std::size_t> replicaOrder(std::string_view key,
                                          std::size_t count) const;

    ClusterSimParams params_;
    ConsistentHashRing ring_;
    /** One fetch memo for every node and the capacity probe: all
     * run the same code at the same addresses (sliceBase 0), on
     * this sim's one thread. Declared before the nodes, so it
     * outlives them. */
    std::unique_ptr<mem::FetchMemo> fetchMemo_ =
        std::make_unique<mem::FetchMemo>();
    /** Node i is ring index i, so ring answers index this. */
    std::vector<std::unique_ptr<server::ServerModel>> nodes_;
    fault::FaultInjector injector_;
    /** Per-node injector forks (fault mode only): each node's
     * loss/flash draws come from its own seeded stream, so a
     * node's fault history depends only on its own operations,
     * never on how other nodes' operations interleave with them.
     * The fault goldens pin these streams. */
    std::vector<std::unique_ptr<fault::FaultInjector>> nodeInjectors_;
    bool populated_ = false;
    double capacity_ = 0.0;
};

} // namespace mercury::cluster

#endif // MERCURY_CLUSTER_CLUSTER_SIM_HH
