#include "server/stack_sim.hh"

#include <algorithm>

#include "sim/contract.hh"

namespace mercury::server
{

StackSimulation::StackSimulation(const StackSimParams &params)
    : params_(params)
{
    MERCURY_EXPECTS(params_.cores >= 1 && params_.cores <= 32,
                    "stack supports 1..32 cores, got ", params_.cores);

    ServerModelParams node = params_.node;

    // Build the shared stack devices.
    SharedStackDevices shared;
    if (node.memory == MemoryKind::StackedDram) {
        dram_ = std::make_unique<mem::DramModel>(
            dramParamsFor(node, "stack.dram"));
        shared.dram = dram_.get();
    } else {
        flash_ = std::make_unique<mem::FlashController>(
            flashParamsFor(node, "stack.flash"));
        shared.flash = flash_.get();
    }

    // All cores funnel through one shared path pair (the kernel's
    // single softirq/NAPI context).
    net::NetParams np = node.net;
    np.name = "stack.c2s";
    c2s_ = std::make_unique<net::NetworkPath>(np);
    np.name = "stack.s2c";
    s2c_ = std::make_unique<net::NetworkPath>(np);
    shared.clientToServer = c2s_.get();
    shared.serverToClient = s2c_.get();

    // Size each core's store to its slice.
    const std::uint64_t fixed_overhead = 32 * miB;
    std::uint64_t slice;
    if (node.memory == MemoryKind::StackedDram) {
        slice = dram_->capacityBytes() / params_.cores;
    } else {
        const std::uint64_t channel =
            flash_->capacityBytes() / flash_->numChannels();
        slice = params_.cores <= 16 ? channel : channel / 2;
    }
    MERCURY_EXPECTS(slice > fixed_overhead + 8 * miB,
                    "too many cores for the stack's capacity");
    node.storeMemLimit = std::min<std::uint64_t>(
        node.storeMemLimit, slice - fixed_overhead);

    cores_.reserve(params_.cores);
    for (unsigned i = 0; i < params_.cores; ++i) {
        ServerModelParams core_params = node;
        core_params.name = "stack.core" + std::to_string(i);
        core_params.seed = node.seed + i;
        core_params.sliceBase = sliceBaseFor(i);
        cores_.push_back(
            std::make_unique<ServerModel>(core_params, &shared));
    }

    // Reference single-core node with private devices.
    ServerModelParams ref = node;
    ref.name = "stack.reference";
    ref.sliceBase = 0;
    reference_ = std::make_unique<ServerModel>(ref);
}

Addr
StackSimulation::sliceBaseFor(unsigned core) const
{
    if (params_.node.memory == MemoryKind::StackedDram)
        return core * (dram_->capacityBytes() / params_.cores);

    const std::uint64_t channel =
        flash_->capacityBytes() / flash_->numChannels();
    if (params_.cores <= 16)
        return core * channel;
    // Two cores per channel past 16 (Sec. 4.1.2).
    return (core % 16) * channel + (core / 16) * (channel / 2);
}

StackSimResult
StackSimulation::run()
{
    const std::uint32_t size = params_.valueBytes;
    const unsigned keys = std::max<unsigned>(
        64, static_cast<unsigned>(4 * miB / std::max<std::uint32_t>(
                                      size, 256)));

    for (auto &core : cores_)
        core->populate(keys, size);
    reference_->populate(keys, size);

    struct CoreState
    {
        ServerModel *model;
        Rng rng;
        unsigned done = 0;
        Tick measureStart = 0;
    };
    std::vector<CoreState> states;
    states.reserve(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i)
        states.push_back({cores_[i].get(), Rng(1000 + i), 0, 0});

    auto issue = [&](CoreState &state) {
        const std::string key =
            ServerModel::keyFor(size, state.rng.nextInt(keys));
        if (state.rng.nextBool(params_.getFraction))
            state.model->get(key);
        else
            state.model->put(key, size);
    };

    // Warmup round, all cores.
    const unsigned warmup = 4;
    for (unsigned round = 0; round < warmup; ++round) {
        for (auto &state : states)
            issue(state);
    }
    // The measured span starts at the earliest core's clock: cores
    // finish warmup at different simulated times, and measured
    // requests on the slowest-started core begin at its own (earlier)
    // clock, so anchoring the span to core 0 under-counted the span
    // and inflated aggregate throughput.
    Tick span_begin = maxTick;
    for (auto &state : states) {
        state.measureStart = state.model->now();
        span_begin = std::min(span_begin, state.measureStart);
    }

    // Closed loop: always advance the core that is furthest behind
    // in simulated time, so shared-device contention interleaves in
    // global time order.
    const unsigned total_requests =
        params_.requestsPerCore * params_.cores;
    unsigned completed = 0;
    while (completed < total_requests) {
        CoreState *next = nullptr;
        for (auto &state : states) {
            if (state.done >= params_.requestsPerCore)
                continue;
            if (!next || state.model->now() < next->model->now())
                next = &state;
        }
        // A request must never move its core's clock backwards --
        // the timing-walk equivalent of scheduling an event in the
        // past on a shared device.
        const Tick before = next->model->now();
        issue(*next);
        MERCURY_ASSERT(next->model->now() >= before,
                       "request moved a core's clock backwards");
        ++next->done;
        ++completed;
    }

    Tick span_end = 0;
    for (auto &state : states)
        span_end = std::max(span_end, state.model->now());
    MERCURY_ENSURES(span_end >= span_begin,
                    "measured span is negative");
    const Tick span = span_end - span_begin;

    // Reference single-core throughput for the linear prediction.
    Rng ref_rng(555);
    for (unsigned i = 0; i < warmup; ++i) {
        reference_->get(ServerModel::keyFor(size, ref_rng.nextInt(keys)));
    }
    const Tick ref_begin = reference_->now();
    for (unsigned i = 0; i < params_.requestsPerCore; ++i) {
        const std::string key =
            ServerModel::keyFor(size, ref_rng.nextInt(keys));
        if (ref_rng.nextBool(params_.getFraction))
            reference_->get(key);
        else
            reference_->put(key, size);
    }
    const double ref_tps =
        static_cast<double>(params_.requestsPerCore) /
        ticksToSeconds(reference_->now() - ref_begin);

    StackSimResult result;
    result.aggregateTps = static_cast<double>(total_requests) /
                          ticksToSeconds(span);
    result.perCoreTps = result.aggregateTps / params_.cores;
    result.linearPredictionTps = ref_tps * params_.cores;
    result.scalingEfficiency =
        result.aggregateTps / result.linearPredictionTps;
    result.nicUtilization = s2c_->utilization(span);
    return result;
}

} // namespace mercury::server
