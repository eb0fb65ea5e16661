/**
 * @file
 * Bounded-retry policy for transient cell failures.
 *
 * SuiteRunner wraps each (configuration x benchmark) cell in
 * runWithRetries(): transient errors (resource pressure, injected
 * faults) are retried up to maxAttempts with deterministic
 * exponential backoff; permanent and timeout errors fail the cell
 * immediately. The backoff sequence carries no jitter on purpose -
 * reproducibility of a faulted sweep matters more here than
 * thundering-herd avoidance, because every worker sleeps
 * independently.
 */

#ifndef IBP_ROBUST_RETRY_HH
#define IBP_ROBUST_RETRY_HH

#include <chrono>
#include <exception>
#include <thread>
#include <type_traits>

#include "robust/error.hh"

namespace ibp {

/** Retry and deadline policy for one simulation cell. */
struct RetryPolicy
{
    /** Total attempts per cell (first try included), >= 1. */
    unsigned maxAttempts = 3;

    /** Backoff before the second attempt, in seconds. */
    double initialBackoffSeconds = 0.005;

    /** Backoff growth factor per subsequent attempt. */
    double backoffMultiplier = 4.0;

    /** Backoff ceiling, in seconds. */
    double maxBackoffSeconds = 1.0;

    /**
     * Per-cell wall-clock deadline, in seconds, enforced by the
     * engine through SimOptions::deadline; 0 disables it.
     */
    double cellDeadlineSeconds = 0.0;

    /**
     * A resumed cell whose journal shows this many start records
     * from prior (dead) incarnations is poisoned: recorded as a
     * timeout FailedCell without another attempt, so one cell that
     * keeps killing the process cannot crash-loop the sweep.
     */
    unsigned poisonThreshold = 2;

    /** Backoff before attempt @p next (2-based), in seconds. */
    double backoffFor(unsigned next) const;
};

/**
 * Policy with the IBP_MAX_ATTEMPTS, IBP_CELL_DEADLINE and
 * IBP_POISON_THRESHOLD environment overrides applied (values are
 * clamped to sane ranges; garbage falls back to the defaults).
 */
RetryPolicy retryPolicyFromEnv();

/**
 * Run @p body under @p policy. @p body receives the 1-based attempt
 * number (fault-injection decisions hash it) and either returns T or
 * throws (RunException for classified errors; any other
 * std::exception is treated as permanent). Transient failures sleep
 * the policy's backoff and retry; the returned error's `attempts`
 * records how many tries were consumed.
 */
template <typename Body>
auto
runWithRetries(const RetryPolicy &policy, Body &&body)
    -> Result<decltype(body(1u))>
{
    RunError last = RunError::permanent("never attempted");
    const unsigned max_attempts =
        policy.maxAttempts == 0 ? 1 : policy.maxAttempts;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        try {
            if constexpr (std::is_void_v<decltype(body(1u))>) {
                body(attempt);
                return Result<void>();
            } else {
                return body(attempt);
            }
        } catch (const RunException &exception) {
            last = exception.error();
        } catch (const std::exception &exception) {
            last = RunError::permanent(exception.what());
        }
        last.attempts = attempt;
        if (!last.retryable() || attempt == max_attempts)
            return last;
        const double seconds = policy.backoffFor(attempt + 1);
        if (seconds > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
        }
    }
    return last;
}

} // namespace ibp

#endif // IBP_ROBUST_RETRY_HH
