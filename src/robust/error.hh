/**
 * @file
 * Recoverable error model for the experiment harness.
 *
 * A multi-hour sweep must survive a malformed trace, a throwing
 * predictor factory, or a failed artifact write. libibp's historical
 * answer was fatal()/panic(), which kills the whole process; this
 * header provides the recoverable alternative:
 *
 *  - RunError: a classified error value (transient errors may be
 *    retried with backoff, permanent and timeout errors may not);
 *  - RunException: the throwing transport for RunError across code
 *    that cannot return a Result (worker lambdas, parsers);
 *  - Result<T>: an explicit value-or-error return for APIs that
 *    parse external input (traces, artifacts, specs).
 *
 * Policy: fatal() remains correct for unrecoverable *startup*
 * configuration errors in CLI front ends; anything that can fail
 * mid-sweep must go through RunError so SuiteRunner can isolate it.
 * See docs/ROBUSTNESS.md.
 */

#ifndef IBP_ROBUST_ERROR_HH
#define IBP_ROBUST_ERROR_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ibp {

/** How an error should be treated by the retry machinery. */
enum class ErrorKind
{
    Transient, ///< May succeed on retry (resource pressure, injected).
    Permanent, ///< Retrying is pointless (malformed input, bad spec).
    Timeout,   ///< The attempt passed its deadline; never retried.
};

/** Printable name of an ErrorKind ("transient", ...). */
const char *errorKindName(ErrorKind kind);

/** A classified, recoverable error. */
struct RunError
{
    ErrorKind kind = ErrorKind::Permanent;
    std::string message;
    /** Attempts consumed before giving up (filled by the retrier). */
    unsigned attempts = 1;

    static RunError transient(std::string message);
    static RunError permanent(std::string message);
    static RunError timeout(std::string message);

    /** Only transient errors are worth another attempt. */
    bool retryable() const { return kind == ErrorKind::Transient; }

    /** "transient: message (after N attempts)" */
    std::string describe() const;
};

/** Exception transport for RunError through throwing code paths. */
class RunException : public std::runtime_error
{
  public:
    explicit RunException(RunError error)
        : std::runtime_error(error.message), _error(std::move(error))
    {
    }

    const RunError &error() const { return _error; }

  private:
    RunError _error;
};

/**
 * Value-or-RunError return type. Deliberately minimal: exactly the
 * surface the harness needs, no monadic combinators.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : _value(std::move(value)) {}
    Result(RunError error) : _error(std::move(error)) {}
    Result(RunException exception) : _error(exception.error()) {}

    bool ok() const { return _value.has_value(); }
    explicit operator bool() const { return ok(); }

    /** Valid only when ok(); throws RunException otherwise. */
    T &value() &
    {
        requireOk();
        return *_value;
    }
    const T &value() const &
    {
        requireOk();
        return *_value;
    }
    T &&value() &&
    {
        requireOk();
        return std::move(*_value);
    }

    /** Valid only when !ok(). */
    const RunError &error() const { return *_error; }

  private:
    void
    requireOk() const
    {
        if (!_value)
            throw RunException(*_error);
    }

    std::optional<T> _value;
    std::optional<RunError> _error;
};

/** Result<void>: success carries no payload. */
template <>
class Result<void>
{
  public:
    Result() = default;
    Result(RunError error) : _error(std::move(error)) {}
    Result(RunException exception) : _error(exception.error()) {}

    bool ok() const { return !_error.has_value(); }
    explicit operator bool() const { return ok(); }
    const RunError &error() const { return *_error; }

  private:
    std::optional<RunError> _error;
};

} // namespace ibp

#endif // IBP_ROBUST_ERROR_HH
