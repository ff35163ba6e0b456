/**
 * @file
 * Status and error reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * panic()  - an internal invariant was violated (simulator bug);
 *            aborts so a debugger or core dump can inspect the state.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits cleanly.
 * warn()   - something works well enough but deserves attention.
 * inform() - normal operating status messages.
 */

#ifndef MERCURY_SIM_LOGGING_HH
#define MERCURY_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mercury
{

/** Severity levels understood by the logger. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

namespace detail
{

/** Emit one formatted log record and take the level's exit action. */
[[noreturn]] void logAndAbort(LogLevel level, const std::string &message,
                              const char *file, int line);

void log(LogLevel level, const std::string &message);

/** True while a ScopedLogCapture has switched fatal paths to throw. */
bool logThrowModeActive();

/** Fold any streamable arguments into a single string ("" for
 * none). */
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

/** Thrown instead of terminating when log-throw mode is active. */
struct SimFatalError : public std::runtime_error
{
    explicit SimFatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * RAII helper for tests: while alive, fatal()/panic() throw
 * SimFatalError instead of terminating the process, and warn/inform
 * output is captured instead of written to stderr.
 */
class ScopedLogCapture
{
  public:
    ScopedLogCapture();
    ~ScopedLogCapture();

    ScopedLogCapture(const ScopedLogCapture &) = delete;
    ScopedLogCapture &operator=(const ScopedLogCapture &) = delete;

    /** Messages captured so far, one per element. */
    const std::vector<std::string> &messages() const;
};

template <typename... Args>
void
inform(Args &&...args)
{
    detail::log(LogLevel::Inform,
                detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
warn(Args &&...args)
{
    detail::log(LogLevel::Warn,
                detail::concat(std::forward<Args>(args)...));
}

} // namespace mercury

/** User-error termination; see file comment. */
#define mercury_fatal(...)                                                  \
    ::mercury::detail::logAndAbort(                                         \
        ::mercury::LogLevel::Fatal,                                         \
        ::mercury::detail::concat(__VA_ARGS__), __FILE__, __LINE__)

/** Internal-bug termination; see file comment. */
#define mercury_panic(...)                                                  \
    ::mercury::detail::logAndAbort(                                         \
        ::mercury::LogLevel::Panic,                                         \
        ::mercury::detail::concat(__VA_ARGS__), __FILE__, __LINE__)

/** Panic unless the given invariant holds. */
#define mercury_assert(cond, ...)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            mercury_panic("assertion '" #cond "' failed: ",                 \
                          ##__VA_ARGS__);                                   \
        }                                                                   \
    } while (0)

#endif // MERCURY_SIM_LOGGING_HH
