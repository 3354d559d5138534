/**
 * @file
 * Error-reporting helpers in the gem5 style: panic() for internal
 * invariant violations, fatal() for user-caused errors, and leveled
 * warn()/inform()/debugLog() status output. panic/fatal throw typed
 * exceptions instead of aborting so that tests can assert on failure
 * modes (failure injection).
 *
 * Status output routes through ONE mutex-serialized sink (a single
 * stderr write per line), so diagnostics from the serving pool's
 * workers never interleave mid-line. The level is
 * runtime-configurable: the BCL_LOG environment variable
 * (silent|warn|info|debug, or 0-3) sets the initial level, and
 * setLogLevel() overrides it programmatically.
 */
#ifndef BCL_COMMON_LOGGING_HPP
#define BCL_COMMON_LOGGING_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace bcl {

/** Base class for all diagnostics thrown by the library. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &msg) : std::runtime_error(msg) {}
};

/** An internal invariant was violated (a bug in this library). */
class PanicError : public Error
{
  public:
    explicit PanicError(const std::string &msg) : Error(msg) {}
};

/** The user supplied an ill-formed program or configuration. */
class FatalError : public Error
{
  public:
    explicit FatalError(const std::string &msg) : Error(msg) {}
};

/**
 * Two branches of a parallel action composition wrote the same state
 * element (section 6.1 of the paper: DOUBLE WRITE ERROR).
 */
class DoubleWriteError : public Error
{
  public:
    explicit DoubleWriteError(const std::string &msg) : Error(msg) {}
};

namespace detail {
std::string formatDiag(const char *kind, const std::string &msg);
} // namespace detail

/** Throw a PanicError; use for "should never happen" conditions. */
[[noreturn]] void panic(const std::string &msg);

/** Throw a FatalError; use for user-visible misconfiguration. */
[[noreturn]] void fatal(const std::string &msg);

/** Diagnostic verbosity, lowest to highest. */
enum class LogLevel : int {
    Silent = 0,  ///< suppress everything (warnings included)
    Warn = 1,    ///< warnings only (the default)
    Info = 2,    ///< + inform()
    Debug = 3,   ///< + debugLog()
};

/** Current level (first call reads BCL_LOG, then it is sticky until
 *  setLogLevel). */
LogLevel logLevel();

/** Override the level at runtime (wins over BCL_LOG). */
void setLogLevel(LogLevel level);

/** Print a warning to the sink (never stops execution). */
void warn(const std::string &msg);

/** Print an informational message (LogLevel::Info and up). */
void inform(const std::string &msg);

/** Print a debug message (LogLevel::Debug only). */
void debugLog(const std::string &msg);

/** Back-compat switch: Info when on, Warn when off. */
void setVerbose(bool on);

} // namespace bcl

#endif // BCL_COMMON_LOGGING_HPP
