/**
 * @file
 * Client side of the ibpd sweep service (docs/SERVICE.md).
 *
 * runExperimentViaDaemon() is what a bench binary calls when
 * --daemon is in effect: it sends the run request to the resident
 * daemon, follows the streamed progress, and renders the returned
 * artifact exactly as the in-process path would have (tables to
 * stdout, CSVs to --csv, the JSON artifact to --json). Because the
 * request carries the run's config, the daemon runs it under that
 * config with the identical engine (refusing only another build), so
 * the rendered artifact is bit-identical to an in-process run - the
 * only observable difference is the metrics.serve block.
 *
 * Degradation ladder, in order:
 *  - admission rejection ("queue full"): sleep the server's
 *    retry-after hint and resubmit, up to maxRejects times;
 *  - transient transport trouble (torn frame, daemon draining,
 *    injected `serve.io` fault): back off and retry the whole
 *    conversation, up to maxAttempts times;
 *  - no daemon, another build, server-side error, or retries
 *    exhausted: FALL BACK to runExperimentInProcess(), so `--daemon`
 *    can be left on unconditionally - a missing daemon costs one
 *    connect() and changes nothing but metrics.serve, which records
 *    the fallback reason.
 */

#ifndef IBP_SERVE_CLIENT_HH
#define IBP_SERVE_CLIENT_HH

#include <string>

#include "sim/experiment.hh"

namespace ibp {

/** Knobs of the daemon client. */
struct ClientOptions
{
    /** Socket override ("" resolves via daemonSocketPath()). */
    std::string socketPath;
    /** Queue priority of the submitted request. */
    int priority = 0;
    /** Whole-conversation attempts before falling back. */
    unsigned maxAttempts = 3;
    /** Base backoff between conversation attempts, in seconds
     *  (grows linearly with the attempt number). */
    double backoffSeconds = 0.05;
    /** Resubmissions after admission rejections before falling
     *  back (each sleeps the server's retry-after hint). */
    unsigned maxRejects = 64;
    /** Receive deadline per reply frame, in seconds: a daemon that
     *  goes silent for this long (hung, wedged, SIGSTOPped) is
     *  treated as transient transport trouble instead of blocking
     *  the client forever. Progress frames reset the clock, so long
     *  sweeps are fine as long as cells keep resolving. Negative =
     *  resolve from $IBP_DAEMON_TIMEOUT, else 300; 0 = no deadline
     *  (wait forever). The benches expose this as --daemon-timeout. */
    double receiveTimeoutSeconds = -1.0;
};

/** How a runExperimentViaDaemon() call was actually satisfied. */
struct ServedOutcome
{
    /** True when the daemon produced the result. */
    bool served = false;
    /** Why the daemon path was abandoned ("" when served). */
    std::string fallbackReason;
    /** Conversation attempts consumed (0 = first try worked). */
    unsigned attempts = 0;
    /** Admission rejections ridden out before acceptance. */
    unsigned rejects = 0;
};

/**
 * Run @p def through the daemon, falling back to
 * runExperimentInProcess(@p def, @p options) when the daemon is
 * absent, incompatible, or persistently unreachable. The
 * ExperimentOptions govern local rendering (echo/csvDir/jsonDir) in
 * both modes, and their run config (options.runConfig()) is what
 * the daemon runs; abort/onCellFinished/checkpointPath only apply to
 * the in-process fallback (the daemon manages its own journals).
 */
ExperimentRunResult
runExperimentViaDaemon(const ExperimentDef &def,
                       const ExperimentOptions &options,
                       const ClientOptions &client,
                       ServedOutcome *outcome = nullptr);

} // namespace ibp

#endif // IBP_SERVE_CLIENT_HH
