#include "cluster/cluster_sim.hh"

#include <algorithm>
#include <deque>

#include "cluster/backoff.hh"
#include "sim/contract.hh"
#include "sim/logging.hh"

namespace mercury::cluster
{

ClusterSim::ClusterSim(const ClusterSimParams &params)
    : params_(params), ring_(params.virtualNodes),
      injector_(params.faults.seed)
{
    mercury_assert(params_.nodes >= 1, "cluster needs nodes");
    nodes_.reserve(params_.nodes);
    for (unsigned i = 0; i < params_.nodes; ++i) {
        const std::string name = "node" + std::to_string(i);
        // Stripe nodes across racks (failure domains) when asked.
        ring_.addNode(name,
                      params_.racks >= 2 ? i % params_.racks : 0);
        // Routing reads ring answers as indices into nodes_.
        MERCURY_ENSURES(ring_.numNodes() == i + 1 &&
                            ring_.nodeName(i) == name,
                        "node ", name, " did not get ring index ", i);

        server::ServerModelParams node_params = params_.node;
        node_params.name = name;
        node_params.seed = params_.seed + i + 1;
        node_params.tracer = params_.tracer;
        node_params.fetchMemo = fetchMemo_.get();
        if (params_.faults.enabled) {
            node_params.net.lossProbability =
                params_.faults.packetLossProbability;
        }
        nodes_.push_back(
            std::make_unique<server::ServerModel>(node_params));
        if (params_.faults.enabled) {
            // Each node draws loss/flash faults from its own fork:
            // its stream is a function of (master seed, node name)
            // and its own op sequence only, never of how ops on
            // *other* nodes interleave.
            nodeInjectors_.push_back(
                std::make_unique<fault::FaultInjector>(
                    injector_.forkSeed(name)));
            nodes_.back()->setFaultInjector(
                nodeInjectors_.back().get());
        }
    }
}

std::uint64_t
ClusterSim::faultDigest() const
{
    std::uint64_t digest = injector_.timelineDigest();
    for (const auto &forked : nodeInjectors_)
        digest = forked->timelineDigest(digest);
    return digest;
}

std::string
ClusterSim::keyFor(std::uint64_t key_id) const
{
    return workload::WorkloadGenerator::keyFor(key_id);
}

std::size_t
ClusterSim::indexOfName(const std::string &name) const
{
    for (std::size_t i = 0; i < ring_.numNodes(); ++i) {
        if (ring_.nodeName(i) == name)
            return i;
    }
    mercury_panic("unknown node ", name);
}

unsigned
ClusterSim::effectiveReplication() const
{
    return std::min(
        std::max(1u, params_.resilience.replicationFactor),
        static_cast<unsigned>(nodes_.size()));
}

std::vector<std::size_t>
ClusterSim::replicaOrder(std::string_view key,
                         std::size_t count) const
{
    if (params_.resilience.rackAwareReplicas && params_.racks >= 2)
        return ring_.replicasFor(key, count, true);
    return ring_.nodesFor(key, count);
}

void
ClusterSim::populate()
{
    if (populated_)
        return;
    const unsigned replication = effectiveReplication();
    for (std::uint64_t id = 0; id < params_.numKeys; ++id) {
        const std::string key = keyFor(id);
        for (const std::size_t index : replicaOrder(key, replication))
            nodes_[index]->put(key, params_.valueBytes);
    }
    populated_ = true;
}

Tick
ClusterSim::timeOrigin()
{
    populate();
    Tick origin = 0;
    for (const auto &node : nodes_)
        origin = std::max(origin, node->now());
    return origin;
}

double
ClusterSim::aggregateCapacity()
{
    if (capacity_ == 0.0) {
        server::ServerModelParams probe = params_.node;
        probe.name = "capacityProbe";
        probe.fetchMemo = fetchMemo_.get();
        server::ServerModel node(probe);
        capacity_ =
            node.measureGets(params_.valueBytes, 16, 4).avgTps *
            static_cast<double>(params_.nodes);
    }
    return capacity_;
}

ClusterSimResult
ClusterSim::run(double offered_tps)
{
    mercury_assert(offered_tps > 0.0, "offered load must be positive");

    workload::WorkloadParams wl;
    wl.numKeys = params_.numKeys;
    wl.popularity = params_.popularity;
    wl.zipfTheta = params_.zipfTheta;
    wl.valueSize =
        workload::ValueSizeDist::fixed(params_.valueBytes);
    wl.getFraction = params_.getFraction;
    wl.seed = params_.seed;
    workload::WorkloadGenerator gen(wl);
    workload::PoissonArrivals arrivals(offered_tps,
                                       params_.seed + 99);

    // Start every node at a common time origin (populates first).
    const Tick origin = timeOrigin();
    for (const auto &node : nodes_)
        node->advanceTo(origin);

    // Recovery-curve channels. Registered (and begun) only when a
    // sampler was attached; everything below that feeds them is
    // guarded, so an unsampled run takes the identical path.
    stats::Sampler *const sampler = params_.sampler;
    trace::Tracer *const tracer = params_.tracer;
    std::size_t ch_requests = 0, ch_ok = 0, ch_failed = 0;
    std::size_t ch_timeouts = 0, ch_shed = 0;
    std::size_t ch_attempt_timeouts = 0, ch_retries = 0;
    std::size_t ch_hedges = 0;
    std::size_t ch_crashes = 0, ch_restarts = 0;
    std::size_t ch_gets = 0, ch_hits = 0, ch_lat = 0;
    if (sampler) {
        ch_requests = sampler->addCounter("requests");
        ch_ok = sampler->addCounter("ok");
        ch_failed = sampler->addCounter("failed");
        ch_timeouts = sampler->addCounter("timeouts");
        ch_shed = sampler->addCounter("shed");
        ch_attempt_timeouts = sampler->addCounter("attempt_timeouts");
        ch_retries = sampler->addCounter("retries");
        ch_hedges = sampler->addCounter("hedges");
        ch_crashes = sampler->addCounter("crashes");
        ch_restarts = sampler->addCounter("restarts");
        ch_gets = sampler->addCounter("gets");
        ch_hits = sampler->addCounter("hits");
        sampler->addRatio("availability", ch_ok, ch_requests, 1.0);
        sampler->addRatio("hit_rate", ch_hits, ch_gets, 1.0);
        ch_lat = sampler->addLatency("lat_us");
        sampler->begin(origin);
    }

    std::vector<Tick> latencies;
    latencies.reserve(params_.requests);
    std::vector<std::vector<Tick>> per_node(nodes_.size());
    std::vector<std::size_t> counts(nodes_.size(), 0);

    ClusterSimResult result;
    result.offeredTps = offered_tps;

    // Client and fault state. Only the random fault sources (the
    // Poisson crash schedule here, per-node loss and injector forks
    // in the constructor) wait for faults.enabled; the client walk
    // and its resilience knobs are the same either way.
    const ClusterFaultParams &fp = params_.faults;
    const ClusterResilienceParams &res = params_.resilience;
    const unsigned replication = effectiveReplication();
    const bool hedging = res.hedgedReads && replication >= 2;
    std::vector<bool> up(nodes_.size(), true);
    std::vector<Tick> restart_at(nodes_.size(), 0);
    /** GETs left in each node's post-restart recovery window. */
    std::vector<unsigned> recovering(nodes_.size(), 0);
    constexpr unsigned recovery_window = 200;
    const Tick crash_mean =
        fp.nodeCrashesPerSecond > 0.0
            ? secondsToTicks(1.0 / fp.nodeCrashesPerSecond)
            : 0;
    Tick next_crash = maxTick;
    if (fp.enabled && crash_mean > 0)
        next_crash = origin + injector_.nextInterval(crash_mean);

    std::uint64_t gets = 0, hits = 0;
    std::uint64_t recovery_gets = 0, recovery_hits = 0;

    // Hinted handoff: writes aimed at a down replica wait here (in
    // write order) and are replayed when the node restarts.
    std::vector<std::vector<std::uint64_t>> hints(nodes_.size());

    // Per-node outstanding-request accounting: completion times of
    // requests in flight on each node, pruned as time passes.
    std::vector<std::deque<Tick>> inflight(nodes_.size());
    auto note_inflight = [&](std::size_t n, Tick begin, Tick end) {
        std::deque<Tick> &q = inflight[n];
        while (!q.empty() && q.front() <= begin)
            q.pop_front();
        q.push_back(end);
        result.maxOutstanding = std::max<std::uint64_t>(
            result.maxOutstanding, q.size());
    };

    // Observed attempt service times drive the hedge delay: hedge
    // when the primary is slower than the configured quantile of
    // what the cluster has been delivering.
    stats::StatGroup hedge_stats("hedge");
    stats::LatencyHistogram attempt_service(
        &hedge_stats, "attempt_us", "attempt service time");
    auto hedge_delay = [&]() -> Tick {
        if (attempt_service.count() < res.hedgeWarmup)
            return res.hedgeFloor;
        const Tick quantile =
            static_cast<Tick>(
                attempt_service.percentile(res.hedgeQuantile)) *
            tickUs;
        return std::max(quantile, res.hedgeFloor);
    };

    // Retry budget: retries so far may not exceed the configured
    // fraction of requests issued so far (warmup included -- the
    // budget is a client-lifetime property, not a measurement one).
    const bool budgeted = res.retryBudgetFraction > 0.0;
    std::uint64_t issued = 0;
    std::uint64_t retries_spent = 0;
    auto retry_allowed = [&]() {
        if (!budgeted)
            return true;
        return static_cast<double>(retries_spent) <
               res.retryBudgetFraction * static_cast<double>(issued);
    };

    // Worst-window availability over the full run.
    const Tick avail_window = params_.availabilityWindow;
    Tick win_end = avail_window > 0 ? origin + avail_window : maxTick;
    std::uint64_t win_requests = 0, win_ok = 0;
    auto close_window = [&]() {
        if (win_requests > 0) {
            result.minWindowAvailability = std::min(
                result.minWindowAvailability,
                static_cast<double>(win_ok) /
                    static_cast<double>(win_requests));
        }
        win_requests = 0;
        win_ok = 0;
    };

    auto crash = [&](std::size_t victim, Tick at) {
        up[victim] = false;
        restart_at[victim] = at + fp.nodeDowntime;
        injector_.record(at, fault::FaultKind::NodeCrash,
                         ring_.nodeName(victim));
        ++result.crashes;
        if (sampler)
            sampler->count(ch_crashes);
    };
    auto restart = [&](std::size_t index, Tick at) {
        up[index] = true;
        // The process lost its in-memory store: it comes back cold
        // and clients re-fill it on misses.
        nodes_[index]->store().flushAll();
        // Replay the hinted writes it missed while down, in arrival
        // order, so it comes back warm for everything written during
        // the outage.
        for (const std::uint64_t key_id : hints[index]) {
            nodes_[index]->put(keyFor(key_id), params_.valueBytes);
            ++result.hintsReplayed;
        }
        hints[index].clear();
        recovering[index] = recovery_window;
        injector_.record(at, fault::FaultKind::NodeRestart,
                         ring_.nodeName(index));
        ++result.restarts;
        if (sampler)
            sampler->count(ch_restarts);
    };

    Tick arrival = origin;
    for (unsigned i = 0; i < params_.warmup + params_.requests;
         ++i) {
        arrival = arrivals.next(arrival);
        const workload::Request request = gen.next();
        const std::string key = keyFor(request.keyId);
        const bool measured = i >= params_.warmup;

        // The sampler sees every request, warmup included: recovery
        // curves want the full trajectory, not just the measured
        // tail. Windows close strictly on arrival ticks, so the
        // emitted series is a pure function of the simulated
        // timeline.
        if (sampler) {
            sampler->advanceTo(arrival);
            sampler->count(ch_requests);
        }
        // Availability windows close strictly on arrival ticks, so
        // minWindowAvailability is a pure function of the simulated
        // timeline too.
        while (avail_window > 0 && arrival >= win_end) {
            close_window();
            win_end += avail_window;
        }
        ++win_requests;
        const std::uint32_t client_req =
            tracer ? tracer->beginRequest() : 0;

        // Nodes whose downtime elapsed come back (cold) first.
        for (std::size_t n = 0; n < nodes_.size(); ++n) {
            if (!up[n] && restart_at[n] <= arrival)
                restart(n, restart_at[n]);
        }
        // Explicitly scheduled fault plans. A plan due before the
        // run's time origin fires at the first arrival (plans are
        // expressed in simulated time, which populate() has already
        // advanced).
        while (auto due = injector_.popDue(arrival)) {
            const Tick at = std::max(due->at, arrival);
            switch (due->kind) {
            case fault::FaultKind::NodeCrash: {
                const std::size_t target = indexOfName(due->target);
                if (up[target])
                    crash(target, at);
                break;
            }
            case fault::FaultKind::NodeRestart: {
                const std::size_t target = indexOfName(due->target);
                if (!up[target])
                    restart(target, at);
                break;
            }
            case fault::FaultKind::NetDegrade:
            case fault::FaultKind::NetRestore:
            case fault::FaultKind::FlashWear: {
                // A degradation burst retunes wire loss; the restore
                // event snaps it back to the configured baseline. A
                // wear burst elevates the program-fail probability;
                // detail 0 marks its end.
                const double level =
                    due->kind == fault::FaultKind::NetRestore
                        ? fp.packetLossProbability
                        : fault::ppbToProbability(due->detail);
                injector_.record(at, due->kind, due->target,
                                 due->detail);
                auto apply = [&](server::ServerModel &node) {
                    if (due->kind == fault::FaultKind::FlashWear)
                        node.setFlashWear(level);
                    else
                        node.setPacketLoss(level);
                };
                if (due->target == fault::allNodes) {
                    for (const auto &node : nodes_)
                        apply(*node);
                } else {
                    apply(*nodes_[indexOfName(due->target)]);
                }
                break;
            }
            default:
                // Probabilistic kinds are never scheduled; a plan
                // carrying one is a bug in the plan builder.
                mercury_panic("unschedulable fault kind in plan: ",
                              fault::kindName(due->kind));
            }
        }
        // Poisson crashes; the last live node is never taken down.
        while (next_crash <= arrival) {
            std::vector<std::size_t> alive;
            for (std::size_t n = 0; n < nodes_.size(); ++n) {
                if (up[n])
                    alive.push_back(n);
            }
            if (alive.size() > 1)
                crash(alive[injector_.pick(alive.size())],
                      next_crash);
            next_crash += injector_.nextInterval(crash_mean);
        }

        // Client request path. The client fans out over the key's
        // replica set (plain ring successors when unreplicated):
        // writes go to every up replica, GETs may be hedged, and a
        // dead-node attempt pays a timeout plus a jittered
        // exponential backoff before the next try, as real memcached
        // clients do.
        const bool is_get = request.op == workload::Request::Op::Get;
        const std::size_t fan = std::max<std::size_t>(
            replication,
            static_cast<std::size_t>(fp.maxRetries) + 1);
        const std::vector<std::size_t> order = replicaOrder(key, fan);
        ++issued;

        enum class Outcome { Pending, Ok, Shed, Failed, TimedOut };
        Outcome outcome = Outcome::Pending;
        Tick penalty = 0;
        Tick answered_at = arrival;

        // Counts one event of this request in its result field (when
        // measured) and in its sampler channel (always).
        auto tally = [&](std::uint64_t &field, std::size_t channel) {
            if (measured)
                ++field;
            if (sampler)
                sampler->count(channel);
        };
        // An unserved attempt's span, on the track of the node the
        // client was waiting on.
        auto attempt_span = [&](std::size_t index, Tick begin, Tick end,
                                unsigned attempt_no) {
            trace::ScopedTraceContext span_ctx(
                tracer, static_cast<std::uint16_t>(index), client_req);
            MERCURY_TRACE_SPAN(tracer, client_req,
                               trace::Stage::Attempt, begin, end,
                               attempt_no);
        };

        // Admission check: a node that cannot start serving within
        // the queue-delay SLO refuses fast instead of queueing.
        auto shed_check = [&](std::size_t index, Tick begin,
                              unsigned attempt_no) {
            if (!res.admissionControl)
                return false;
            const Tick node_free = nodes_[index]->now();
            const Tick queue_delay =
                node_free > begin ? node_free - begin : 0;
            if (queue_delay <= res.sloQueueDelay)
                return false;
            answered_at = begin + res.shedResponseTime;
            outcome = Outcome::Shed;
            tally(result.shed, ch_shed);
            attempt_span(index, begin, answered_at, attempt_no);
            return true;
        };

        struct AttemptOutcome
        {
            Tick end = 0;
            bool hit = false;
        };
        // One traced attempt (the request's GET or PUT) against an up
        // node; it ends when the node answered. Node-side spans carry
        // the serving node's identity and the client envelope as
        // causal parent.
        auto serve = [&](std::size_t index, Tick begin,
                         unsigned attempt_no) {
            server::ServerModel &node = *nodes_[index];
            node.advanceTo(begin);
            bool hit = false;
            {
                trace::ScopedTraceContext span_ctx(
                    tracer, static_cast<std::uint16_t>(index),
                    client_req);
                if (is_get)
                    hit = node.get(key).hit;
                else
                    node.put(key, params_.valueBytes);
                MERCURY_TRACE_SPAN(tracer, client_req,
                                   trace::Stage::Attempt, begin,
                                   node.now(), attempt_no);
            }
            note_inflight(index, begin, node.now());
            return AttemptOutcome{node.now(), hit};
        };
        auto finish_served = [&](std::size_t index, Tick end) {
            outcome = Outcome::Ok;
            answered_at = end;
            const Tick latency = end - arrival;
            ++win_ok;
            if (sampler) {
                sampler->count(ch_ok);
                sampler->recordLatency(
                    ch_lat, static_cast<std::uint64_t>(
                                latency / tickUs));
            }
            if (measured) {
                ++result.ok;
                latencies.push_back(latency);
                per_node[index].push_back(latency);
                ++counts[index];
            }
        };
        // The GET attempt that actually answered the client feeds the
        // hedge delay and the hit accounting. A cancelled hedge loser
        // never gets here: its result is discarded.
        auto answer_get = [&](std::size_t index, Tick begin,
                              const AttemptOutcome &got) {
            attempt_service.record((got.end - begin) / tickUs);
            if (measured) {
                ++gets;
                hits += got.hit ? 1 : 0;
            }
            if (sampler) {
                sampler->count(ch_gets);
                if (got.hit)
                    sampler->count(ch_hits);
            }
            if (recovering[index] > 0) {
                --recovering[index];
                ++recovery_gets;
                recovery_hits += got.hit ? 1 : 0;
            }
            // Read-through: a missed key is re-filled after the
            // client got its answer, off the critical path. With
            // replicas this doubles as read repair of a diverged
            // copy.
            if (!got.hit) {
                nodes_[index]->put(key, params_.valueBytes);
                if (replication >= 2)
                    ++result.readRepairs;
            }
            finish_served(index, got.end);
        };

        // Hedged GET: race the primary against one backup replica;
        // the first answer wins and the loser is cancelled. A dead
        // primary never answers, so the hedge rescues the GET at the
        // hedge delay instead of waiting out the full request
        // timeout.
        if (hedging && is_get) {
            const std::size_t primary = order[0];
            std::size_t secondary = 0;
            bool have_secondary = false;
            for (std::size_t r = 1; r < replication; ++r) {
                if (up[order[r]]) {
                    secondary = order[r];
                    have_secondary = true;
                    break;
                }
            }
            const bool primary_up = up[primary];
            // No race when the primary shed the GET (it is answered)
            // or the whole replica set is down (the failover walk
            // below times out over the replicas).
            const bool race = primary_up
                                  ? !shed_check(primary, arrival, 0)
                                  : have_secondary;
            if (race) {
                const AttemptOutcome first =
                    primary_up ? serve(primary, arrival, 0)
                               : AttemptOutcome{maxTick, false};
                const Tick backup_begin = arrival + hedge_delay();
                if (have_secondary && first.end > backup_begin) {
                    // The primary is dead or past the hedge quantile:
                    // fire the backup. A dead primary's attempt times
                    // out when the hedge fires.
                    if (!primary_up) {
                        tally(result.attemptTimeouts,
                              ch_attempt_timeouts);
                        attempt_span(primary, arrival, backup_begin, 0);
                    }
                    tally(result.hedges, ch_hedges);
                    // Only a backup standing in for a dead primary
                    // faces admission control; its fast refusal still
                    // answers first.
                    const bool backup_shed =
                        !primary_up &&
                        shed_check(secondary, backup_begin, 1);
                    const AttemptOutcome second =
                        backup_shed
                            ? AttemptOutcome{answered_at, false}
                            : serve(secondary, backup_begin, 1);
                    const bool backup_won = second.end < first.end;
                    if (measured && backup_won)
                        ++result.hedgeWins;
                    // A shed backup always wins, and its refusal is
                    // the answer.
                    if (!backup_won)
                        answer_get(primary, arrival, first);
                    else if (!backup_shed)
                        answer_get(secondary, backup_begin, second);
                } else {
                    answer_get(primary, arrival, first);
                }
            }
        }

        // Replicated write round: write every up replica at arrival,
        // hint the down ones for replay at their restart.
        if (outcome == Outcome::Pending && !is_get &&
            replication >= 2) {
            std::size_t first_up = replication;
            for (std::size_t r = 0; r < replication; ++r) {
                if (up[order[r]]) {
                    first_up = r;
                    break;
                }
            }
            if (first_up < replication &&
                !shed_check(order[first_up], arrival,
                            static_cast<unsigned>(first_up))) {
                Tick end = arrival;
                unsigned attempt_no = 0;
                for (std::size_t r = 0; r < replication; ++r) {
                    const std::size_t index = order[r];
                    if (!up[index]) {
                        hints[index].push_back(request.keyId);
                        ++result.hintsQueued;
                        continue;
                    }
                    end = std::max(
                        end, serve(index, arrival, attempt_no++).end);
                }
                // The round completes when the slowest replica
                // acked (write-all).
                finish_served(order[first_up], end);
            }
        }

        if (outcome == Outcome::Pending) {
            // Generic failover walk: successive attempts over the
            // order, a timeout per dead node and a jittered backoff
            // before each retry. A replicated write never walks past
            // its replica set -- data must not land on a
            // non-replica.
            const std::size_t walk_span =
                (!is_get && replication >= 2)
                    ? replication
                    : order.size();
            for (unsigned attempt = 0; attempt <= fp.maxRetries;
                 ++attempt) {
                const std::size_t index =
                    order[attempt % walk_span];
                const Tick attempt_begin = arrival + penalty;
                if (!up[index]) {
                    penalty += fp.requestTimeout;
                    tally(result.attemptTimeouts, ch_attempt_timeouts);
                    attempt_span(index, attempt_begin, arrival + penalty,
                                 attempt);
                    if (attempt < fp.maxRetries) {
                        if (!retry_allowed()) {
                            // Budget spent: give up now instead of
                            // feeding a retry storm.
                            outcome = Outcome::Failed;
                            answered_at = arrival + penalty;
                            tally(result.failedRequests, ch_failed);
                            break;
                        }
                        ++retries_spent;
                        const Tick backoff_begin = arrival + penalty;
                        penalty += jitteredBackoff(
                            fp.backoffBase, attempt,
                            fp.backoffJitter, injector_);
                        tally(result.retries, ch_retries);
                        {
                            trace::ScopedTraceContext span_ctx(
                                tracer, trace::clientNode,
                                client_req);
                            MERCURY_TRACE_SPAN(
                                tracer, client_req,
                                trace::Stage::Backoff,
                                backoff_begin, arrival + penalty,
                                attempt);
                        }
                    }
                    continue;
                }

                if (shed_check(index, attempt_begin, attempt))
                    break;

                const AttemptOutcome got =
                    serve(index, attempt_begin, attempt);
                if (is_get)
                    answer_get(index, attempt_begin, got);
                else
                    finish_served(index, got.end);
                break;
            }
        }

        if (outcome == Outcome::Pending) {
            // Exhausted every attempt against dead nodes.
            outcome = Outcome::TimedOut;
            answered_at = arrival + penalty;
            tally(result.timeouts, ch_timeouts);
        }
        if (tracer) {
            trace::ScopedTraceContext span_ctx(tracer,
                                               trace::clientNode);
            MERCURY_TRACE_SPAN(tracer, client_req,
                               trace::Stage::Client, arrival,
                               answered_at,
                               outcome == Outcome::Ok ? 1 : 0);
        }
    }

    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        double sum = 0.0;
        std::size_t sub_ms = 0;
        for (const Tick latency : latencies) {
            sum += ticksToUs(latency);
            if (latency < tickMs)
                ++sub_ms;
        }
        result.avgLatencyUs =
            sum / static_cast<double>(latencies.size());
        result.p99LatencyUs = ticksToUs(latencies[static_cast<
            std::size_t>(0.99 * (latencies.size() - 1))]);
        result.p999LatencyUs = ticksToUs(latencies[static_cast<
            std::size_t>(0.999 * (latencies.size() - 1))]);
        result.subMsFraction = static_cast<double>(sub_ms) /
                               static_cast<double>(latencies.size());
    }

    // Hot-node statistics.
    std::size_t hottest = 0;
    for (std::size_t i = 1; i < counts.size(); ++i) {
        if (counts[i] > counts[hottest])
            hottest = i;
    }
    result.hottestNodeShare =
        static_cast<double>(counts[hottest]) /
        static_cast<double>(params_.requests);

    auto p99_of = [](std::vector<Tick> &v) {
        if (v.empty())
            return 0.0;
        std::sort(v.begin(), v.end());
        return ticksToUs(
            v[static_cast<std::size_t>(0.99 * (v.size() - 1))]);
    };
    const double hot_p99 = p99_of(per_node[hottest]);
    std::vector<double> node_p99s;
    for (auto &v : per_node) {
        if (!v.empty())
            node_p99s.push_back(p99_of(v));
    }
    if (!node_p99s.empty()) {
        std::sort(node_p99s.begin(), node_p99s.end());
        const double median_p99 = node_p99s[node_p99s.size() / 2];
        result.hotNodeTailAmplification =
            median_p99 > 0.0 ? hot_p99 / median_p99 : 0.0;
    }

    if (avail_window > 0)
        close_window();
    result.requests = params_.requests;
    result.availability = static_cast<double>(result.ok) /
                          static_cast<double>(result.requests);
    // The accounting contract: every measured request lands in
    // exactly one outcome class. Always on -- a violation here means
    // a new result class was added without wiring its accounting.
    MERCURY_ASSERT(result.accountedRequests() == result.requests,
                   "request outcomes must partition requests");
    if (gets > 0)
        result.hitRate = static_cast<double>(hits) /
                         static_cast<double>(gets);
    if (recovery_gets > 0)
        result.postRestartHitRate =
            static_cast<double>(recovery_hits) /
            static_cast<double>(recovery_gets);
    for (const auto &node : nodes_) {
        result.netDrops += node->netDrops();
        result.netRetransmits += node->netRetransmits();
    }
    result.faultTimelineDigest = faultDigest();
    if (sampler)
        sampler->finish(arrival);
    return result;
}

} // namespace mercury::cluster
