#include "cluster/cluster_sim.hh"

#include <algorithm>
#include <deque>

#include "cluster/backoff.hh"
#include "sim/contract.hh"
#include "sim/latency_summary.hh"

namespace mercury::cluster
{

using workload::WorkloadGenerator;

ClusterSim::ClusterSim(const ClusterSimParams &params)
    : params_(params), ring_(params.virtualNodes),
      injector_(params.faults.seed)
{
    MERCURY_EXPECTS(params_.nodes >= 1, "cluster needs nodes");
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

std::size_t
ClusterSim::indexOfName(const std::string &name) const
{
    for (std::size_t i = 0; i < ring_.numNodes(); ++i) {
        if (ring_.nodeName(i) == name)
            return i;
    }
    MERCURY_UNREACHABLE("unknown node ", name);
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
        const std::string key = WorkloadGenerator::keyFor(id);
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
    MERCURY_EXPECTS(offered_tps > 0.0, "offered load must be positive");
    // Availability and the hot-node share divide by the measured
    // request count; an empty window would make them 0/0.
    MERCURY_EXPECTS(params_.requests > 0, "a run needs measured requests");

    workload::WorkloadParams wl;
    wl.numKeys = params_.numKeys;
    wl.popularity = params_.popularity;
    wl.zipfTheta = params_.zipfTheta;
    wl.valueSize =
        workload::ValueSizeDist::fixed(params_.valueBytes);
    wl.getFraction = params_.getFraction;
    wl.seed = params_.seed;
    WorkloadGenerator gen(wl);
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
    /** Measured requests answered by each node. */
    std::vector<std::uint64_t> served(nodes_.size(), 0);

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
    std::uint64_t issued = 0;
    std::uint64_t retries_spent = 0;
    auto retry_allowed = [&]() {
        return res.retryBudgetFraction <= 0.0 ||
               static_cast<double>(retries_spent) <
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
            nodes_[index]->put(WorkloadGenerator::keyFor(key_id),
                               params_.valueBytes);
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
        const std::string key = WorkloadGenerator::keyFor(request.keyId);
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
                MERCURY_UNREACHABLE("unschedulable fault kind in plan: ",
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

        // The walk below only decides the request: its outcome, when
        // the client got its answer and, if served, which node served
        // it. The decision is recorded once, after the walk. A request
        // left Unanswered met a dead node on every attempt: it timed
        // out.
        enum class Outcome { Unanswered, Ok, Shed, Failed };
        struct Decision
        {
            Outcome outcome = Outcome::Unanswered;
            Tick answeredAt = 0;
            std::size_t servedBy = 0;
        } decision;
        Tick penalty = 0;

        // Counts one event of this request in its counter (when
        // measured) and in its sampler channel (always).
        auto tally = [&](std::uint64_t &field, std::size_t channel) {
            if (measured)
                ++field;
            if (sampler)
                sampler->count(channel);
        };
        // A span the client records itself on @p track: the request's
        // Client envelope, a Backoff, or an unserved Attempt on the
        // track of the node the client was waiting on. The envelope
        // is the root; the others name it as causal parent.
        auto client_span = [&](std::size_t track, trace::Stage stage,
                               Tick begin, Tick end, std::uint64_t arg) {
            trace::ScopedTraceContext span_ctx(
                tracer, static_cast<std::uint16_t>(track),
                stage == trace::Stage::Client ? trace::noParent
                                              : client_req);
            MERCURY_TRACE_SPAN(tracer, client_req, stage, begin, end,
                               arg);
        };
        // Rank in the order of the first up replica at or after
        // rank `from`; `replication` when all of them are down.
        auto first_up = [&](std::size_t from) {
            while (from < replication && !up[order[from]])
                ++from;
            return from;
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
            decision = {Outcome::Shed, begin + res.shedResponseTime,
                        index};
            client_span(index, trace::Stage::Attempt, begin,
                        decision.answeredAt, attempt_no);
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
            const trace::ScopedTraceContext span_ctx(
                tracer, static_cast<std::uint16_t>(index), client_req);
            bool hit = false;
            if (is_get)
                hit = node.get(key).hit;
            else
                node.put(key, params_.valueBytes);
            MERCURY_TRACE_SPAN(tracer, client_req, trace::Stage::Attempt,
                               begin, node.now(), attempt_no);
            std::deque<Tick> &q = inflight[index];
            while (!q.empty() && q.front() <= begin)
                q.pop_front();
            q.push_back(node.now());
            result.maxOutstanding = std::max<std::uint64_t>(
                result.maxOutstanding, q.size());
            return AttemptOutcome{node.now(), hit};
        };
        // The GET attempt that actually answered the client feeds the
        // hedge delay and the hit accounting. A cancelled hedge loser
        // never gets here: its result is discarded.
        auto answer_get = [&](std::size_t index, Tick begin,
                              const AttemptOutcome &got) {
            attempt_service.record((got.end - begin) / tickUs);
            tally(gets, ch_gets);
            if (got.hit)
                tally(hits, ch_hits);
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
            decision = {Outcome::Ok, got.end, index};
        };

        if (hedging && is_get) {
            // Hedged GET: race the primary against the first up
            // backup replica; the first answer wins and the loser is
            // cancelled. No race when the primary sheds the GET (it
            // is answered) or the whole replica set is down (the
            // failover walk below times out over the replicas).
            const std::size_t primary = order[0];
            const std::size_t backup_rank = first_up(1);
            const bool have_backup = backup_rank < replication;
            if (!up[primary] && have_backup) {
                // A dead primary never answers: the hedge fires at
                // the hedge delay, when the primary's attempt times
                // out, instead of after the full request timeout. The
                // backup stands in for the primary, so it faces
                // admission control; a fast refusal still answers.
                const std::size_t backup = order[backup_rank];
                const Tick backup_begin = arrival + hedge_delay();
                tally(result.attemptTimeouts, ch_attempt_timeouts);
                client_span(primary, trace::Stage::Attempt, arrival,
                            backup_begin, 0);
                tally(result.hedges, ch_hedges);
                if (measured)
                    ++result.hedgeWins;
                if (!shed_check(backup, backup_begin, 1))
                    answer_get(backup, backup_begin,
                               serve(backup, backup_begin, 1));
            } else if (up[primary] && !shed_check(primary, arrival, 0)) {
                // The backup fires only when the primary is past the
                // hedge quantile.
                const AttemptOutcome first = serve(primary, arrival, 0);
                const Tick backup_begin = arrival + hedge_delay();
                AttemptOutcome second{maxTick, false};
                if (have_backup && first.end > backup_begin) {
                    tally(result.hedges, ch_hedges);
                    second = serve(order[backup_rank], backup_begin, 1);
                }
                if (second.end < first.end) {
                    if (measured)
                        ++result.hedgeWins;
                    answer_get(order[backup_rank], backup_begin, second);
                } else {
                    answer_get(primary, arrival, first);
                }
            }
        } else if (!is_get && replication >= 2) {
            // Replicated write round: write every up replica at
            // arrival, hint the down ones for replay at their
            // restart. The first up replica's admission check gates
            // the round, and the round's latency is booked to it.
            const std::size_t lead = first_up(0);
            if (lead < replication &&
                !shed_check(order[lead], arrival,
                            static_cast<unsigned>(lead))) {
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
                decision = {Outcome::Ok, end, order[lead]};
            }
        }

        if (decision.outcome == Outcome::Unanswered) {
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
                if (up[index]) {
                    if (shed_check(index, attempt_begin, attempt))
                        break;
                    const AttemptOutcome got =
                        serve(index, attempt_begin, attempt);
                    if (is_get)
                        answer_get(index, attempt_begin, got);
                    else
                        decision = {Outcome::Ok, got.end, index};
                    break;
                }
                penalty += fp.requestTimeout;
                tally(result.attemptTimeouts, ch_attempt_timeouts);
                client_span(index, trace::Stage::Attempt, attempt_begin,
                            arrival + penalty, attempt);
                if (attempt == fp.maxRetries)
                    break;
                if (!retry_allowed()) {
                    // Budget spent: give up now instead of feeding a
                    // retry storm.
                    decision = {Outcome::Failed, arrival + penalty};
                    break;
                }
                ++retries_spent;
                const Tick backoff_begin = arrival + penalty;
                penalty += jitteredBackoff(fp.backoffBase, attempt,
                                           fp.backoffJitter, injector_);
                tally(result.retries, ch_retries);
                client_span(trace::clientNode, trace::Stage::Backoff,
                            backoff_begin, arrival + penalty, attempt);
            }
        }

        // Record the outcome: its result class and sampler channel;
        // a served request also counts toward its availability
        // window and gives a latency sample.
        switch (decision.outcome) {
        case Outcome::Ok: {
            const Tick latency = decision.answeredAt - arrival;
            tally(result.ok, ch_ok);
            ++win_ok;
            if (sampler)
                sampler->recordLatency(ch_lat, latency / tickUs);
            if (measured) {
                latencies.push_back(latency);
                ++served[decision.servedBy];
            }
            break;
        }
        case Outcome::Shed:
            tally(result.shed, ch_shed);
            break;
        case Outcome::Failed:
            tally(result.failedRequests, ch_failed);
            break;
        case Outcome::Unanswered:
            decision.answeredAt = arrival + penalty;
            tally(result.timeouts, ch_timeouts);
            break;
        }
        client_span(trace::clientNode, trace::Stage::Client, arrival,
                    decision.answeredAt,
                    decision.outcome == Outcome::Ok ? 1 : 0);
    }

    const stats::LatencySummary summary(std::move(latencies));
    result.avgLatencyUs = summary.meanUs();
    result.p99LatencyUs = summary.quantileUs(0.99);
    result.p999LatencyUs = summary.quantileUs(0.999);
    result.subMsFraction = summary.subMsFraction();

    result.hottestNodeShare =
        static_cast<double>(
            *std::max_element(served.begin(), served.end())) /
        static_cast<double>(params_.requests);

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
