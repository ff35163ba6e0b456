#include "cpu/core.hh"

#include <algorithm>
#include <vector>

#include "sim/contract.hh"

namespace mercury::cpu
{

namespace
{

/** Implementation of TraceBuilder's bulk helpers lives here to keep
 * the header light. */
constexpr std::uint64_t
linesFor(std::uint64_t bytes, unsigned line_bytes)
{
    return (bytes + line_bytes - 1) / line_bytes;
}

} // anonymous namespace

TraceBuilder &
TraceBuilder::codePass(Addr base, std::uint64_t region_bytes,
                       std::uint64_t instructions, unsigned line_bytes)
{
    const std::uint64_t lines = linesFor(region_bytes, line_bytes);
    if (lines == 0)
        return compute(instructions);

    trace_.push_back(
        Op::codePass(base, lines, instructions, line_bytes));
    return *this;
}

TraceBuilder &
TraceBuilder::streamRead(Addr base, std::uint64_t bytes,
                         unsigned line_bytes)
{
    for (std::uint64_t i = 0; i < linesFor(bytes, line_bytes); ++i) {
        trace_.push_back(
            Op::load(base + i * line_bytes, Stream::Sequential));
    }
    return *this;
}

CoreModel::CoreModel(const CoreParams &params,
                     mem::CacheHierarchy *caches,
                     stats::StatGroup *parent)
    : params_(params), caches_(caches),
      statGroup_(params.name, parent),
      instrRetired_(&statGroup_, "instructions", "instructions retired"),
      memOpsIssued_(&statGroup_, "memOps", "memory operations issued"),
      computeTicksStat_(&statGroup_, "computeTicks",
                        "ticks spent issuing instructions"),
      stallTicksStat_(&statGroup_, "stallTicks",
                      "ticks stalled on the memory system")
{
    MERCURY_EXPECTS(caches_ != nullptr, "core needs a cache hierarchy");
    MERCURY_EXPECTS(params_.freqGHz > 0.0, "core frequency must be > 0");
    MERCURY_EXPECTS(params_.issueIpc > 0.0, "core IPC must be > 0");
    MERCURY_EXPECTS(params_.mlpRandom >= 1 && params_.mlpSequential >= 1,
                    "MLP must be at least 1");
}

unsigned
CoreModel::mlpFor(Stream stream) const
{
    if (!params_.outOfOrder)
        return 1;
    switch (stream) {
      case Stream::Random: return params_.mlpRandom;
      case Stream::Sequential: return params_.mlpSequential;
      case Stream::Dependent: return 1;
    }
    return 1;
}

Tick
CoreModel::computeTicksFor(std::uint64_t instructions) const
{
    const double cycles =
        static_cast<double>(instructions) / params_.issueIpc;
    // Cycles-to-ticks at core frequency; keep the exact expression
    // (and its rounding) that the calibration constants were fit
    // against.
    // lint: allow(tick-cast)
    return static_cast<Tick>(cycles * static_cast<double>(tickNs) /
                             params_.freqGHz);
}

RunResult
CoreModel::run(const OpTrace &trace, Tick start)
{
    RunResult result;
    result.start = start;

    Tick cursor = start;
    Tick compute_ticks = 0;

    // The miss window keeps its capacity across runs, so a run
    // allocates nothing.
    outstanding_.clear();

    const Tick issue_cost = params_.cyclePeriod();

    auto drain_all = [&] {
        for (const Tick t : outstanding_)
            cursor = std::max(cursor, t);
        outstanding_.clear();
    };

    auto wait_for_one_slot = [&](unsigned window) {
        while (outstanding_.size() >= window) {
            auto earliest = std::min_element(outstanding_.begin(),
                                              outstanding_.end());
            cursor = std::max(cursor, *earliest);
            outstanding_.erase(earliest);
        }
    };

    auto compute = [&](std::uint64_t instructions, Tick t) {
        // Out-of-order cores keep computing while misses are in
        // flight; in-order cores have already drained.
        cursor += t;
        compute_ticks += t;
        result.instructions += instructions;
    };

    // One memory op: send it into the hierarchy, then stall on the
    // result or leave it in flight.
    auto memory_op = [&](mem::CpuAccessKind kind, Addr addr,
                         Stream stream) {
        ++result.memOps;
        const unsigned window = mlpFor(stream);
        if (stream == Stream::Dependent)
            drain_all();
        wait_for_one_slot(window);

        cursor += issue_cost;
        compute_ticks += issue_cost;

        const mem::AccessResult access =
            caches_->access(kind, addr, cursor);

        if (access.source == mem::ServicedBy::L1) {
            // Hits stay in the pipeline.
            const Tick t = access.completion - cursor;
            cursor = access.completion;
            compute_ticks += t;
        } else if (stream == Stream::Dependent || !params_.outOfOrder) {
            cursor = access.completion;
        } else {
            outstanding_.push_back(access.completion);
        }
    };

    for (const Op &op : trace) {
        switch (op.kind) {
          case Op::Kind::Compute:
            compute(op.instructions, computeTicksFor(op.instructions));
            break;
          case Op::Kind::CodePass: {
            // Each line is one fetch followed by its share of the
            // pass's instructions; the first `extra` lines run one
            // more (see TraceBuilder::codePass).
            MERCURY_EXPECTS(op.lines > 0 && op.lineBytes > 0,
                            "a code pass needs at least one line");
            const std::uint64_t per_line = op.instructions / op.lines;
            const std::uint64_t extra = op.instructions % op.lines;
            const Tick per_line_ticks = computeTicksFor(per_line);
            const Tick extra_ticks = computeTicksFor(per_line + 1);
            if (params_.outOfOrder) {
                Addr addr = op.addr;
                for (std::uint64_t i = 0; i < op.lines;
                     ++i, addr += op.lineBytes) {
                    memory_op(mem::CpuAccessKind::IFetch, addr,
                              Stream::Sequential);
                    if (i < extra)
                        compute(per_line + 1, extra_ticks);
                    else if (per_line > 0)
                        compute(per_line, per_line_ticks);
                }
                break;
            }
            // memory_op without its miss window: an in-order core
            // never has a miss in flight, so each fetch issues and
            // blocks until it completes.
            result.memOps += op.lines;
            cursor = caches_->fetchPass(
                op.addr, op.lines, op.lineBytes, cursor, issue_cost,
                per_line, extra, per_line_ticks, extra_ticks,
                &compute_ticks, &result.instructions);
            break;
          }
          case Op::Kind::Load:
            memory_op(mem::CpuAccessKind::Load, op.addr, op.stream);
            break;
          case Op::Kind::Store:
            memory_op(mem::CpuAccessKind::Store, op.addr, op.stream);
            break;
        }
    }

    drain_all();

    result.end = cursor;
    result.computeTicks = compute_ticks;
    result.stallTicks = result.elapsed() > compute_ticks
                            ? result.elapsed() - compute_ticks
                            : 0;

    instrRetired_ += static_cast<double>(result.instructions);
    memOpsIssued_ += static_cast<double>(result.memOps);
    computeTicksStat_ += static_cast<double>(result.computeTicks);
    stallTicksStat_ += static_cast<double>(result.stallTicks);
    return result;
}

CoreParams
cortexA7Params()
{
    CoreParams p;
    p.name = "cortexA7";
    p.type = CoreType::CortexA7;
    p.freqGHz = 1.0;
    p.issueIpc = 1.0;
    p.outOfOrder = false;
    p.mlpRandom = 1;
    p.mlpSequential = 1;
    p.activePowerW = 0.1;
    p.areaMm2 = 0.58;
    return p;
}

CoreParams
cortexA15Params(double freq_ghz)
{
    CoreParams p;
    p.name = "cortexA15";
    p.type = CoreType::CortexA15;
    p.freqGHz = freq_ghz;
    p.issueIpc = 2.3;
    p.outOfOrder = true;
    p.mlpRandom = 4;
    p.mlpSequential = 6;
    p.activePowerW = freq_ghz > 1.25 ? 1.0 : 0.6;
    p.areaMm2 = 2.82;
    return p;
}

mem::HierarchyParams
defaultHierarchy(CoreType type, bool with_l2)
{
    mem::HierarchyParams hp;
    hp.hasL2 = with_l2;
    switch (type) {
      case CoreType::CortexA7:
        hp.l1i = {"l1i", 32 * kiB, 2, 64, 1 * tickNs};
        hp.l1d = {"l1d", 32 * kiB, 4, 64, 1 * tickNs};
        hp.l2 = {"l2", 2 * miB, 8, 64, 25 * tickNs};
        break;
      case CoreType::CortexA15:
        hp.l1i = {"l1i", 32 * kiB, 2, 64, 1 * tickNs};
        hp.l1d = {"l1d", 32 * kiB, 2, 64, 1 * tickNs};
        hp.l2 = {"l2", 2 * miB, 16, 64, 25 * tickNs};
        break;
    }
    return hp;
}

} // namespace mercury::cpu
