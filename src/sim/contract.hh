/**
 * @file
 * Simulator contract/invariant layer.
 *
 * Four macro families, all reporting through one formatted diagnostic
 * path that includes the most recently observed simulated time:
 *
 *   MERCURY_ASSERT(cond, ...)      - internal invariant; always on.
 *   MERCURY_EXPECTS(cond, ...)     - precondition on entry; always on.
 *   MERCURY_ENSURES(cond, ...)     - postcondition on exit; always on.
 *   MERCURY_ASSERT_SLOW(cond, ...) - expensive structural check
 *                                    (full-container walks); compiled
 *                                    in only with MERCURY_EXTRA_CHECKS
 *                                    (the debug and asan-ubsan presets
 *                                    enable it).
 *
 * The always-on variants must stay cheap enough for release builds:
 * O(1) or O(log n) per call, no allocation on the success path.
 *
 * A violation formats "<kind> '<cond>' violated at file:line
 * [curTick=N]: message" and aborts, so a debugger or core dump can
 * inspect the broken state. Tests instead install a
 * ScopedContractThrow (or the wider ScopedLogCapture), under which a
 * violation throws ContractViolation; ContractViolation derives from
 * SimFatalError so older tests that expect SimFatalError keep
 * passing.
 */

#ifndef MERCURY_SIM_CONTRACT_HH
#define MERCURY_SIM_CONTRACT_HH

#include <sstream>
#include <string>
#include <utility>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace mercury::contract
{

/** Which contract family a violation came from. */
enum class Kind { Invariant, Precondition, Postcondition };

/** Thrown instead of aborting while a ScopedContractThrow (or
 * ScopedLogCapture) is active. */
struct ContractViolation : public SimFatalError
{
    explicit ContractViolation(const std::string &what)
        : SimFatalError(what)
    {}
};

/**
 * Record the simulated time most recently observed by a clock owner
 * (the server timing walk). Contract diagnostics embed this value so
 * a violation deep in a container still says *when* the simulation
 * broke.
 */
void noteTick(Tick tick);

/** The last tick passed to noteTick(); 0 before any. */
Tick lastNotedTick();

/**
 * RAII test mode: while alive, contract violations throw
 * ContractViolation instead of aborting the process. Nests safely.
 */
class ScopedContractThrow
{
  public:
    ScopedContractThrow();
    ~ScopedContractThrow();

    ScopedContractThrow(const ScopedContractThrow &) = delete;
    ScopedContractThrow &operator=(const ScopedContractThrow &) = delete;
};

/** Report a violated contract and abort (or throw in test mode). */
[[noreturn]] void fail(Kind kind, const char *cond, const char *file,
                       int line, const std::string &message);

namespace detail
{

/** Fold any streamable arguments into one string ("" for none). */
template <typename... Args>
std::string
concat(Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return {};
    } else {
        std::ostringstream os;
        (os << ... << std::forward<Args>(args));
        return os.str();
    }
}

} // namespace detail

} // namespace mercury::contract

#define MERCURY_CONTRACT_CHECK_(kind, cond, ...)                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::mercury::contract::fail(                                      \
                kind, #cond, __FILE__, __LINE__,                            \
                ::mercury::contract::detail::concat(__VA_ARGS__));          \
        }                                                                   \
    } while (0)

/** Always-on internal invariant check. */
#define MERCURY_ASSERT(cond, ...)                                           \
    MERCURY_CONTRACT_CHECK_(::mercury::contract::Kind::Invariant, cond,     \
                            ##__VA_ARGS__)

/** Always-on precondition check (caller handed us bad state). */
#define MERCURY_EXPECTS(cond, ...)                                          \
    MERCURY_CONTRACT_CHECK_(::mercury::contract::Kind::Precondition, cond,  \
                            ##__VA_ARGS__)

/** Always-on postcondition check (we are about to hand back bad
 * state). */
#define MERCURY_ENSURES(cond, ...)                                          \
    MERCURY_CONTRACT_CHECK_(::mercury::contract::Kind::Postcondition, cond, \
                            ##__VA_ARGS__)

#ifdef MERCURY_EXTRA_CHECKS
/** Expensive structural check; compiled in only with
 * MERCURY_EXTRA_CHECKS. The condition is NOT evaluated otherwise. */
#define MERCURY_ASSERT_SLOW(cond, ...) MERCURY_ASSERT(cond, ##__VA_ARGS__)
#define MERCURY_EXTRA_CHECKS_ENABLED 1
#else
#define MERCURY_ASSERT_SLOW(cond, ...) static_cast<void>(0)
#define MERCURY_EXTRA_CHECKS_ENABLED 0
#endif

#endif // MERCURY_SIM_CONTRACT_HH
