/**
 * @file
 * Shared pieces of the repository benchmark (see README.md here):
 * the clock and quantile helpers, the expected-table checker, the
 * job runners for the in-process and the served path, and the ibpd
 * process handle. The benchmark only calls libibp's public entry
 * points; every timing in it is taken by its own steady clock.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <sys/types.h>

#include "report/artifact.hh"
#include "sim/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Quantile @p q of @p values by Python's statistics.quantiles
 *  default ("exclusive") interpolation; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Trace scale of every workload: the benches' --quick cut. */
constexpr const char *kQuickEventScale = "0.25";
/** Worker threads of an in-process job. */
constexpr unsigned kInProcessThreads = 4;
/** ibpd worker lanes of the served workload (one thread each). */
constexpr unsigned kServedLanes = 4;

/** Set IBP_THREADS for this process (read per call by libibp). */
void setThreads(unsigned threads);

/** Remove every entry of a store or cache directory but keep the
 *  directory itself (claims need it to take their flock). */
void emptyDirectory(const std::string &directory);

/** The expected outcome of one job, committed in expected/. */
struct Expected
{
    std::string slug;
    /** Grid cells the job resolves (metrics.cells of a clean run). */
    std::uint64_t cells = 0;
    /** (branch x predictor) events a cold run simulates. */
    std::uint64_t branches = 0;
    /** Compact JSON of every result table, in emission order. */
    std::vector<std::string> tables;
};

/** Load every expected/<slug>.json under @p directory; throws
 *  std::runtime_error when a file is unreadable or malformed. */
std::map<std::string, Expected>
loadExpected(const std::string &directory);

/** Write @p artifact's tables and counts as expected/<slug>.json. */
void writeExpected(const std::string &directory,
                   const ibp::RunArtifact &artifact);

/** Outcome of one timed job. */
struct JobResult
{
    std::string slug;
    /** Latency by the benchmark's clock, submit to artifact. */
    double seconds = 0.0;
    std::shared_ptr<ibp::RunArtifact> artifact;
    /** Why the job counts as failed ("" when it passed). */
    std::string failure;
    /** Submitted to a daemon but not served by it. */
    bool fellBack = false;
};

/** Run @p def at quick scale through runExperimentInProcess and
 *  check its tables and cell count against @p expected. */
JobResult runInProcess(const ibp::ExperimentDef &def,
                       const Expected &expected);

/** Submit @p def through runExperimentViaDaemon to the daemon at
 *  @p socket. A job the daemon did not serve - fallen back,
 *  refused, or missing its metrics.serve block - is a failure. */
JobResult runServed(const ibp::ExperimentDef &def,
                    const Expected &expected,
                    const std::string &socket);

/** A running ibpd, stopped (SIGTERM, then SIGKILL) and reaped by
 *  stop() or the destructor. */
class Daemon
{
  public:
    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon();

    /**
     * Spawn @p binary with --lanes=kServedLanes, its socket and
     * state under @p directory, the trace cache at @p traceCache and
     * IBP_THREADS=1, then wait until it answers a ping. Throws
     * std::runtime_error when it does not come up.
     */
    void start(const std::string &binary, const std::string &directory,
               const std::string &traceCache);

    void stop();

    const std::string &socket() const { return _socket; }
    /** The daemon's own result store. */
    const std::string &resultStore() const { return _store; }

    /** Reset the peak-RSS mark of the daemon and its lanes. */
    void resetPeakRss() const;
    /** Sum of the peak RSS of the daemon and its lanes, in MiB. */
    double peakRssMb() const;

  private:
    pid_t _pid = -1;
    std::string _socket;
    std::string _store;
};

/** One named workload (README.md explains why each exists). */
struct Workload
{
    std::string name;
    /** Jobs go through a live ibpd instead of in process. */
    bool served = false;
    /** The result store is warmed in set-up and kept warm;
     *  otherwise it is emptied before every pass. */
    bool warmStore = false;
    /** The pass also needs traces with conditional records. */
    bool conditionals = false;
    std::vector<const ibp::ExperimentDef *> jobs;
};

/** (benchmark, with conditional records) of every trace the
 *  workload's jobs read: the 17-program suite, plus the 13 AVG
 *  programs with conditional records when it needs them. */
std::vector<std::pair<std::string, bool>>
tracesOf(const Workload &workload);

/** The workload called @p name; nullptr when there is none. */
const Workload *findWorkload(const std::string &name);

/** State of one benchmark run. */
struct Context
{
    std::string workDir;
    std::string ibpdBinary;
    const Workload *workload = nullptr;
    std::map<std::string, Expected> expected;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    /** Trace cache and result store of the current set-up. */
    std::string traceCache;
    std::string resultStore;
    Daemon daemon;
    /** Every job this run made, set-up jobs included. */
    std::vector<JobResult> jobs;

    /** Run @p def the way the workload runs its jobs, check it and
     *  record it in `jobs`. */
    const JobResult &runJob(const ibp::ExperimentDef &def);
    /** Empty the result store the jobs write to. */
    void emptyStore() const;
};

/** The workload's jobs in the order the seeded @p rng draws. */
std::vector<const ibp::ExperimentDef *>
shuffled(const Workload &workload, std::mt19937_64 &rng);

/** One metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Set up workload @p context from scratch in directory
 * `<workDir>/setup<index>`: generate and cache its traces, arm the
 * caches, and warm the result store or start the daemon. Returns
 * the set-up seconds.
 */
double setUp(Context &context, unsigned index);

/** The traced run: replay the workload layer by layer (replay.cc). */
std::vector<Metric> runTraced(Context &context);

/** Peak RSS of this process in MiB (since the last reset). */
double selfPeakRssMb();
/** Reset this process's peak-RSS mark (best effort). */
void resetSelfPeakRss();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
