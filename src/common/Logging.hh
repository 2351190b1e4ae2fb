/**
 * @file
 * Minimal gem5-style status and error reporting helpers.
 *
 * fatal() reports a user/configuration error and exits; panic() reports
 * an internal simulator bug and aborts; warn()/inform() print to stderr
 * without stopping the simulation.
 *
 * The two failure modes have distinct, documented exit statuses so
 * harnesses (fault sweeps, CI) can classify a dead process without
 * parsing prose: fatal() exits with kFatalExitCode (2); panic()
 * raises SIGABRT (shell status 134).  Before aborting, panic() dumps
 * the thread's registered diagnostic context (setPanicDiag) as one
 * machine-readable `panic-diag:` line.
 */

#ifndef SBORAM_COMMON_LOGGING_HH
#define SBORAM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace sboram {

/** Exit status of fatal(): configuration / usage error. */
inline constexpr int kFatalExitCode = 2;

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * Register a one-line machine-readable diagnostic (key=value pairs)
 * that panic() prints before aborting — e.g. the access count,
 * bucket and level of a detected corruption.  Thread-local; cleared
 * with an empty string.  Off the hot path: callers set it only when
 * a failure is already certain or imminent.
 */
void setPanicDiag(std::string diag);

/** The currently registered diagnostic ("" when none). */
const std::string &panicDiag();

/** Format helper: printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace sboram

#define SB_FATAL(...) \
    ::sboram::fatalImpl(__FILE__, __LINE__, ::sboram::strprintf(__VA_ARGS__))
#define SB_PANIC(...) \
    ::sboram::panicImpl(__FILE__, __LINE__, ::sboram::strprintf(__VA_ARGS__))
#define SB_WARN(...) ::sboram::warnImpl(::sboram::strprintf(__VA_ARGS__))
#define SB_INFORM(...) ::sboram::informImpl(::sboram::strprintf(__VA_ARGS__))

/** Internal-consistency check that survives NDEBUG builds. */
#define SB_ASSERT(cond, ...)                                           \
    do {                                                               \
        if (!(cond)) {                                                 \
            ::sboram::panicImpl(__FILE__, __LINE__,                    \
                std::string("assertion failed: " #cond " — ") +        \
                ::sboram::strprintf(__VA_ARGS__));                     \
        }                                                              \
    } while (0)

#endif // SBORAM_COMMON_LOGGING_HH
