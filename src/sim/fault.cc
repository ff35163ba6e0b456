#include "sim/fault.hh"

#include <algorithm>

#include "sim/contract.hh"

namespace mercury::fault
{

const char *
kindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::PacketLoss: return "packet-loss";
      case FaultKind::MacBufferDrop: return "mac-buffer-drop";
      case FaultKind::FlashProgramFail: return "flash-program-fail";
      case FaultKind::FlashBadBlock: return "flash-bad-block";
      case FaultKind::NodeCrash: return "node-crash";
      case FaultKind::NodeRestart: return "node-restart";
      case FaultKind::NetDegrade: return "net-degrade";
      case FaultKind::NetRestore: return "net-restore";
      case FaultKind::FlashWear: return "flash-wear";
    }
    return "unknown";
}

FaultInjector::FaultInjector(std::uint64_t seed)
    : seed_(seed), rng_(seed)
{}

bool
FaultInjector::roll(double probability)
{
    if (probability <= 0.0)
        return false;
    if (probability >= 1.0)
        return true;
    return rng_.nextBool(probability);
}

double
FaultInjector::jitter(double fraction)
{
    if (fraction <= 0.0)
        return 1.0;
    return 1.0 + fraction * (2.0 * rng_.nextDouble() - 1.0);
}

Tick
FaultInjector::nextInterval(Tick mean)
{
    MERCURY_EXPECTS(mean > 0, "fault interval mean must be positive");
    const double drawn =
        rng_.nextExponential(static_cast<double>(mean));
    return std::max<Tick>(1, static_cast<Tick>(drawn));
}

std::uint64_t
FaultInjector::pick(std::uint64_t bound)
{
    MERCURY_EXPECTS(bound > 0, "pick needs a positive bound");
    return rng_.nextInt(bound);
}

void
FaultInjector::schedule(Tick at, FaultKind kind, std::string target,
                        std::uint64_t detail)
{
    scheduled_.emplace(
        at, ScheduledFault{at, kind, std::move(target), detail});
}

std::optional<ScheduledFault>
FaultInjector::popDue(Tick now)
{
    auto it = scheduled_.begin();
    if (it == scheduled_.end() || it->first > now)
        return std::nullopt;
    ScheduledFault fault = std::move(it->second);
    scheduled_.erase(it);
    return fault;
}

void
FaultInjector::record(Tick at, FaultKind kind, std::string_view target,
                      std::uint64_t detail)
{
    timeline_.push_back(
        FaultRecord{at, kind, std::string(target), detail});
}

std::uint64_t
FaultInjector::forkSeed(std::string_view label) const
{
    constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ull;
    constexpr std::uint64_t fnv_prime = 0x100000001b3ull;

    std::uint64_t hash = fnv_offset;
    for (int shift = 0; shift < 64; shift += 8) {
        hash ^= static_cast<std::uint8_t>(seed_ >> shift);
        hash *= fnv_prime;
    }
    for (const char c : label) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= fnv_prime;
    }
    return hash;
}

std::uint64_t
FaultInjector::timelineDigest() const
{
    constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ull;
    return timelineDigest(fnv_offset);
}

std::uint64_t
FaultInjector::timelineDigest(std::uint64_t basis) const
{
    constexpr std::uint64_t fnv_prime = 0x100000001b3ull;

    std::uint64_t hash = basis;
    auto fold_byte = [&hash](std::uint8_t byte) {
        hash ^= byte;
        hash *= fnv_prime;
    };
    auto fold_u64 = [&fold_byte](std::uint64_t value) {
        for (int shift = 0; shift < 64; shift += 8)
            fold_byte(static_cast<std::uint8_t>(value >> shift));
    };

    for (const FaultRecord &record : timeline_) {
        fold_u64(record.at);
        fold_byte(static_cast<std::uint8_t>(record.kind));
        for (const char c : record.target)
            fold_byte(static_cast<std::uint8_t>(c));
        fold_u64(record.detail);
    }
    return hash;
}

void
scheduleBadDay(FaultInjector &injector, const BadDayPlan &plan)
{
    Tick when = plan.at;
    for (const std::string &victim : plan.crashedNodes) {
        injector.schedule(when, FaultKind::NodeCrash, victim);
        if (plan.downtime > 0) {
            injector.schedule(when + plan.downtime,
                              FaultKind::NodeRestart, victim);
        }
        when += plan.crashStagger;
    }
    if (plan.lossProbability > 0.0 && plan.lossDuration > 0) {
        injector.schedule(plan.at, FaultKind::NetDegrade, allNodes,
                          probabilityToPpb(plan.lossProbability));
        injector.schedule(plan.at + plan.lossDuration,
                          FaultKind::NetRestore, allNodes);
    }
    if (plan.flashProgramFailProbability > 0.0 &&
        plan.flashWearDuration > 0) {
        injector.schedule(
            plan.at, FaultKind::FlashWear, allNodes,
            probabilityToPpb(plan.flashProgramFailProbability));
        injector.schedule(plan.at + plan.flashWearDuration,
                          FaultKind::FlashWear, allNodes, 0);
    }
}

} // namespace mercury::fault
