/**
 * @file
 * The knobs that shape a run's result, as one value.
 *
 * Besides the experiment itself, three things decide what an
 * artifact holds: the trace scale, the armed fault sites and the
 * retry policy. A RunConfig carries all three. A run evaluates one
 * when it starts; a --daemon client ships it in its RunRequest, and
 * the daemon runs the job under exactly that value, whatever its own
 * environment says. The thread count is not part of it: results do
 * not depend on it, and each executor (a daemon lane too) keeps its
 * own.
 *
 * This module is the only reader of IBP_EVENTS, IBP_THREADS,
 * IBP_FAULT_INJECT, IBP_MAX_ATTEMPTS, IBP_CELL_DEADLINE and
 * IBP_POISON_THRESHOLD, and it caches nothing: every call reads the
 * environment as it is then.
 */

#ifndef IBP_ROBUST_RUN_CONFIG_HH
#define IBP_ROBUST_RUN_CONFIG_HH

#include <string>

#include "robust/error.hh"
#include "robust/fault_injection.hh"
#include "robust/retry.hh"
#include "util/json.hh"

namespace ibp {

struct RunConfig
{
    /** Multiplier of every benchmark's default trace length, in
     *  [0.01, 100]. */
    double eventScale = 1.0;
    /** Armed fault-injection sites; disarmed by default. */
    FaultInjector faults;
    /** Per-cell retry, deadline and poisoning policy. */
    RetryPolicy retry;

    /**
     * The environment's config: IBP_EVENTS when set (garbage reads
     * as 1.0, clamped to [0.01, 100]), else 0.25 for a @p quick run
     * and 1.0 otherwise; IBP_FAULT_INJECT (malformed is fatal -
     * ignoring it would un-test what the user asked to test); the
     * retry knobs (garbage and out-of-range values keep defaults).
     */
    static RunConfig fromEnvironment(bool quick);

    Json toJson() const;
    /** Wire input: a missing field, a bad fault spec or an
     *  out-of-range value is an error, never fatal. */
    static Result<RunConfig> fromJson(const Json &json);
};

/** Worker threads of the executor: IBP_THREADS (at least 1) when
 *  set, else the hardware concurrency. */
unsigned simulationThreads();

} // namespace ibp

#endif // IBP_ROBUST_RUN_CONFIG_HH
