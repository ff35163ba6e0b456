#include "sim/contract.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace mercury::contract
{

namespace
{

/** Most recent simulated time reported by a clock owner on THIS
 * thread. Thread-local so parallel sweep workers -- each running a
 * private simulation -- stamp their own diagnostics with their own
 * timeline instead of racing over one global, and noteTick() stays
 * a plain store on the hot path. */
thread_local Tick lastTick{0};

/** Nesting depth of active ScopedContractThrow guards. */
std::atomic<int> throwDepth{0};

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Invariant: return "invariant";
      case Kind::Precondition: return "precondition";
      case Kind::Postcondition: return "postcondition";
    }
    return "contract";
}

} // anonymous namespace

void
noteTick(Tick tick)
{
    lastTick = tick;
}

Tick
lastNotedTick()
{
    return lastTick;
}

ScopedContractThrow::ScopedContractThrow()
{
    throwDepth.fetch_add(1, std::memory_order_relaxed);
}

ScopedContractThrow::~ScopedContractThrow()
{
    throwDepth.fetch_sub(1, std::memory_order_relaxed);
}

void
fail(Kind kind, const char *cond, const char *file, int line,
     const std::string &message)
{
    std::ostringstream os;
    os << kindName(kind) << " '" << cond << "' violated at " << file
       << ":" << line << " [curTick=" << lastNotedTick() << "]";
    if (!message.empty())
        os << ": " << message;

    if (throwDepth.load(std::memory_order_relaxed) > 0)
        throw ContractViolation(os.str());
    std::cerr << os.str() << '\n';
    std::abort();
}

} // namespace mercury::contract
