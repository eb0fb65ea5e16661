/**
 * @file
 * The shared bench command line.
 *
 * Every bench binary accepts the same flags; parsing them lives here
 * (instead of once per binary) so a new flag - like --daemon - lands
 * everywhere at once. runBenchMain() is the whole main() of a bench:
 * parse flags, route through the resident ibpd daemon when --daemon
 * is in effect (falling back to in-process execution when no daemon
 * answers; src/serve/client.hh), else run in-process directly.
 */

#ifndef IBP_BENCH_COMMON_FLAGS_HH
#define IBP_BENCH_COMMON_FLAGS_HH

#include <string>

#include "serve/client.hh"
#include "sim/experiment.hh"

namespace ibp {

/** Everything the shared bench CLI extracts from argv. */
struct BenchCli
{
    /** Options for the run itself (quick, csv/json dirs, journal,
     *  and the run's config with the retry flags applied).
     *  --trace-cache is applied to the process while parsing. */
    ExperimentOptions options;
    /** Route through the resident daemon (--daemon given). */
    bool useDaemon = false;
    /** Socket from --daemon=SOCKET ("" = IBP_DAEMON, else the
     *  default; serve/protocol.hh). */
    std::string daemonSocket;
    /** Per-frame receive deadline from --daemon-timeout=SECONDS
     *  (negative = $IBP_DAEMON_TIMEOUT, else 300; 0 = wait
     *  forever). Guards against a hung daemon blocking the bench
     *  indefinitely; serve/client.hh. */
    double daemonTimeoutSeconds = -1.0;
};

/**
 * Parse the shared flags. Prints usage and exits on --help or an
 * unknown/malformed flag (this is the CLI front end; the library
 * layers below never exit).
 */
BenchCli parseBenchFlags(int argc, char **argv);

/**
 * The standard bench main: parse flags, then run @p def via the
 * daemon (--daemon) or in-process. Returns the process exit code
 * (0 clean, 1 fatal, 3 partial).
 */
int runBenchMain(const ExperimentDef &def, int argc, char **argv);

} // namespace ibp

#endif // IBP_BENCH_COMMON_FLAGS_HH
