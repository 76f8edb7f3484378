/**
 * @file
 * gem5-style status reporting for the MEALib simulator.
 *
 * fatal() reports conditions caused by the caller (bad configuration,
 * invalid arguments) and panic() reports internal invariant violations.
 * Both throw (rather than exit) so that library users and tests can
 * recover; inform()/warn() print to stderr and continue.
 */

#ifndef MEALIB_COMMON_LOGGING_HH
#define MEALIB_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace mealib {

/** Error thrown by fatal(): the condition is the user's fault. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Error thrown by panic(): an internal MEALib invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail {

/** Concatenate a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Abort the current operation due to a user-caused condition. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat(std::forward<Args>(args)...));
}

/** Abort the current operation due to an internal bug. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(detail::concat(std::forward<Args>(args)...));
}

/** Check a user-facing precondition; fatal() on failure. */
template <typename... Args>
void
fatalIf(bool cond, Args &&...args)
{
    if (cond)
        fatal(std::forward<Args>(args)...);
}

/** Check an internal invariant; panic() on failure. */
template <typename... Args>
void
panicIf(bool cond, Args &&...args)
{
    if (cond)
        panic(std::forward<Args>(args)...);
}

/** Print an informational message to stderr. */
void informStr(const std::string &msg);

/** Print a warning message to stderr. */
void warnStr(const std::string &msg);

/** Enable/disable inform() output (warnings always print). */
void setVerbose(bool verbose);

/** Streamed variant of informStr(). */
template <typename... Args>
void
inform(Args &&...args)
{
    informStr(detail::concat(std::forward<Args>(args)...));
}

/** Streamed variant of warnStr(). */
template <typename... Args>
void
warn(Args &&...args)
{
    warnStr(detail::concat(std::forward<Args>(args)...));
}

} // namespace mealib

#endif // MEALIB_COMMON_LOGGING_HH
