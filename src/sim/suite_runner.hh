/**
 * @file
 * Run predictor configurations across the benchmark suite.
 *
 * A SuiteRunner acquires the synthetic traces of a set of benchmarks
 * (in parallel, through the on-disk trace cache when one is
 * configured), then evaluates (configuration x benchmark) grids in
 * parallel across hardware threads, feeding every column of a
 * benchmark - across all the grids of one run() call - from a single
 * trace traversal (simulateMany). It knows the paper's averaging
 * groups (Table 3) and can render results as per-benchmark or
 * per-group ResultTables, which is how every bench binary reproduces
 * its figure or table.
 *
 * Fault tolerance (docs/ROBUSTNESS.md): a grid chunk that fails
 * re-runs its cells as one-cell chunks, so an error in one
 * (configuration x benchmark) pair is caught, retried under a
 * RetryPolicy when transient, cancelled past its deadline, and on
 * permanent failure recorded as a FailedCell while the rest of the
 * grid completes. Completed cells can be journalled to a
 * CheckpointJournal so a killed sweep resumes where it died.
 */

#ifndef IBP_SIM_SUITE_RUNNER_HH
#define IBP_SIM_SUITE_RUNNER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "report/run_metrics.hh"
#include "robust/checkpoint.hh"
#include "robust/retry.hh"
#include "sim/executor.hh"
#include "robust/run_config.hh"
#include "sim/simulator.hh"
#include "synth/benchmark_suite.hh"
#include "util/format.hh"

namespace ibp {

/** Builds a fresh predictor instance for one simulation run. */
using PredictorFactory =
    std::function<std::unique_ptr<IndirectPredictor>()>;

/** One labelled configuration of a sweep. */
struct SweepColumn
{
    std::string label;
    PredictorFactory make;
    /**
     * Canonical content hash of the configuration `make` builds
     * (core/spec_codec.hh), or 0 when unknown. A keyed column's
     * cells are served by the content-addressed result store on
     * warm runs; an unkeyed column always simulates. Use the
     * helpers in sim/spec_columns.hh to build keyed columns -
     * hand-rolled factories must guarantee the hash describes
     * EXACTLY what the factory constructs, or the store would
     * serve a different predictor's counters.
     */
    std::uint64_t specHash = 0;
};

/** One cell that failed permanently (isolation kept the grid alive). */
struct FailedCell
{
    std::string column;
    std::string benchmark;
    std::string error;
    ErrorKind kind = ErrorKind::Permanent;
    unsigned attempts = 1;
};

/** Misprediction rates of a sweep: rates[column][benchmark], in %. */
class GridResult
{
  public:
    void set(const std::string &column, const std::string &benchmark,
             double missPercent);
    double get(const std::string &column,
               const std::string &benchmark) const;
    bool has(const std::string &column,
             const std::string &benchmark) const;

    /** Record a cell that could not be computed. */
    void setFailed(FailedCell cell);

    const std::vector<FailedCell> &failures() const
    {
        return _failures;
    }

    /** True when at least one cell failed. */
    bool partial() const { return !_failures.empty(); }

    /**
     * Arithmetic mean over the members of @p members that are
     * present. A partial grid averages what it has; NaN when no
     * member is present at all.
     */
    double average(const std::string &column,
                   const std::vector<std::string> &members) const;

    /** How many of @p members have a value in @p column. */
    std::size_t presentCount(
        const std::string &column,
        const std::vector<std::string> &members) const;

  private:
    std::map<std::string, std::map<std::string, double>> _rates;
    std::vector<FailedCell> _failures;
};

/**
 * Mutable state shared by the run() calls of one experiment: where
 * telemetry and failures go, the optional checkpoint journal, and
 * the grid-id counter that keeps the grids of an experiment
 * distinguishable inside the journal. The run's config is the
 * runner's (SuiteRunner::config()).
 */
struct RunSession
{
    RunMetrics *metrics = nullptr;
    CheckpointJournal *checkpoint = nullptr;
    /** Next grid id; run() consumes one per grid, in order. */
    unsigned nextGridId = 0;
    /**
     * Drain flag (may be null). While it reads true, run() stops
     * STARTING cells: in-flight cells finish normally (and are
     * journalled), unstarted cells are left absent from the grid -
     * neither completed nor failed - so a drained sweep resumes
     * from its checkpoint journal exactly where it stopped. Used by
     * the ibpd daemon's graceful SIGTERM drain (docs/SERVICE.md).
     */
    const std::atomic<bool> *abort = nullptr;
    /**
     * Invoked once per resolved cell - completed, failed, or
     * journal-restored - from whichever worker thread resolved it.
     * The serve layer streams per-cell progress events with this;
     * it must not block for long or throw.
     */
    std::function<void()> onCellFinished;
    /**
     * Grid sharding (docs/SERVICE.md): when shardCount > 1 AND a
     * result store is armed, run() simulates only the cells whose
     * benchmark this shard owns - owner = (benchmark index +
     * grid id) % shardCount - persisting them into the store;
     * foreign keyed cells stay absent from the grid (a later merge
     * pass restores everything from the store), and unkeyed cells
     * are left for the merge outright (they cannot flow through the
     * store). Sharding on the BENCHMARK axis keeps every grid
     * chunk (one benchmark, all pending columns) whole, so the
     * shared trace traversal and the equal-config predictor dedup
     * survive the split; the grid-id rotation keeps repeated grids
     * from starving the same shard. With no store armed the
     * shard spec is ignored and every cell simulates (correct,
     * just unshared).
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    /**
     * Work stealing: after finishing its own partition, claim and
     * simulate foreign keyed cells that no peer has stored or
     * claimed yet, so a crashed or slow shard degrades the fan-out
     * to slack, never to missing cells.
     */
    bool shardSteal = false;
    /**
     * Acquire an exclusive store claim (ResultStore::tryClaim) per
     * keyed cell before simulating it; cells claimed by a live peer
     * are deferred and served from the store once the owner
     * persists them. This is what lets concurrent shards - and
     * concurrent OVERLAPPING requests - simulate every shared cell
     * exactly once. Ignored when no store is armed.
     */
    bool cellClaims = false;
};

/** How this runner's traces were obtained (cache vs generator). */
struct TraceSourceStats
{
    /** Traces produced by running the generator (cache misses). */
    unsigned generated = 0;
    /** Traces served from the on-disk trace cache (all transports). */
    unsigned cacheHits = 0;
    /** Cache hits served zero-copy from an mmap'ed `.ibpm` entry. */
    unsigned mmapHits = 0;
    /** Cache hits parsed from a legacy `.ibpt` stream entry. */
    unsigned streamHits = 0;
    /** Wall time of the whole acquisition phase, in seconds. */
    double seconds = 0.0;
};

class SuiteRunner
{
  public:
    /**
     * @param benchmarks        benchmark names to simulate;
     * @param emitConditionals  include conditional-branch records in
     *                          the generated traces (needed only by
     *                          predictors that consume them);
     * @param config            the run's config: it sizes the
     *                          traces and keys them and the stored
     *                          cells, and its retry policy and fault
     *                          sites govern trace generation and
     *                          every cell of run(). Bodies pass
     *                          ExperimentContext::config(); the
     *                          default, the environment's non-quick
     *                          config, is for harnesses outside a
     *                          run.
     *
     * Traces are acquired *asynchronously* on the process-wide
     * executor (Executor::global(), sized by simulationThreads()):
     * the constructor validates the benchmark names, spawns one
     * acquisition task per benchmark and returns immediately. Each
     * task first consults the on-disk trace cache when one is
     * configured (TraceCache::global(), i.e. `--trace-cache` /
     * IBP_TRACE_CACHE), and only misses run the generator - under
     * @p config's retry policy - then populate the cache for the
     * next run. run() overlaps
     * simulation with acquisition (a benchmark's sweep group starts
     * the moment its trace lands); the accessors below block until
     * acquisition completes, and the destructor waits for any tasks
     * still in flight. A benchmark whose trace cannot be obtained
     * stays in benchmarks() but every later run() marks its cells
     * failed instead of aborting the suite.
     */
    explicit SuiteRunner(
        std::vector<std::string> benchmarks,
        bool emitConditionals = false,
        RunConfig config = RunConfig::fromEnvironment(false));

    ~SuiteRunner();

    /** The paper's 13-program AVG set (OO + C). */
    static SuiteRunner avgSuite(bool emitConditionals,
                                const RunConfig &config);

    /** All 17 programs. */
    static SuiteRunner fullSuite(bool emitConditionals,
                                 const RunConfig &config);

    /** The run's config: the traces' scale, the cells' retry
     *  policy and fault sites. */
    const RunConfig &config() const { return _config; }

    const std::vector<std::string> &benchmarks() const
    {
        return _names;
    }

    /**
     * Blocks until acquisition completes. The blocking accessors
     * (this, failedBenchmarks(), traceSourceStats()) must not be
     * called from an executor worker while acquisition is still in
     * flight - that would park the worker the acquisition tasks wait
     * for, so it fails an assertion instead; use forEachTrace().
     */
    const Trace &trace(const std::string &benchmark) const;

    /** Benchmark name -> error, for traces that failed to generate.
     *  Blocks until acquisition completes. */
    const std::map<std::string, RunError> &failedBenchmarks() const;

    /**
     * Where this runner's traces came from. A warm cache shows
     * generated == 0; run() and forEachTrace() publish these
     * counters into their RunMetrics once per runner, so artifacts
     * record whether a run paid the generation cost. Blocks until
     * acquisition completes.
     */
    const TraceSourceStats &traceSourceStats() const;

    /**
     * Simulate every (column x benchmark) pair of every grid, in
     * parallel: each benchmark's pending cells, across all of
     * @p grids, form a chunk that runs as one simulateMany
     * traversal, and a failed chunk falls back to one-cell chunks
     * with the isolation governed by config() (retries, per-cell
     * deadline, fault sites) and @p session (checkpoint
     * lookup/append, telemetry and failure records). Returns one
     * GridResult per grid, in order.
     *
     * Each grid consumes one grid id from the session, in order, so
     * labels, journal records, "sim" fault keys, store keys and
     * shard owners are exactly those of one call per grid; only
     * the chunking (and the "fused" fault key, which names the
     * call's first grid id) differs. Fusing grids shares the trace
     * traversal but keeps every grid's predictors live at once: a
     * one-grid call is run({columns}, session).front().
     */
    std::vector<GridResult>
    run(const std::vector<std::vector<SweepColumn>> &grids,
        RunSession &session) const;

    /**
     * Convenience one-grid call: a throwaway session with no
     * checkpoint and @p metrics as the sink.
     */
    GridResult run(const std::vector<SweepColumn> &columns,
                   RunMetrics *metrics = nullptr) const;

    /**
     * Run @p fn(index, trace) once per benchmark whose acquisition
     * succeeded - index into benchmarks() - on the executor, the
     * moment that trace lands (benchmarks whose acquisition failed
     * are skipped); returns when every call finished. Calls run
     * concurrently, so @p fn writes only its own index's slot. For
     * side walks over the traces that are not predictor grids;
     * walks read TraceBlockCursor blocks, so a columnar trace never
     * materialises its AoS shadow. Publishes the trace-source
     * counters into @p metrics like run().
     */
    void forEachTrace(
        const std::function<void(std::size_t, const Trace &)> &fn,
        RunMetrics *metrics = nullptr) const;

    /**
     * Render a grid as a table with one row per averaging group that
     * is fully covered by this runner's benchmarks, in the paper's
     * order (AVG, AVG-OO, AVG-C, AVG-100, AVG-200, AVG-infreq).
     * Cells whose group has no surviving member stay blank.
     */
    ResultTable groupTable(const std::string &title,
                           const GridResult &grid,
                           const std::vector<SweepColumn> &columns) const;

    /** Render a grid with one row per benchmark plus group rows. */
    ResultTable benchmarkTable(const std::string &title,
                               const GridResult &grid,
                               const std::vector<SweepColumn> &columns)
        const;

    /** Group name -> members, restricted to covered groups. */
    std::vector<std::pair<std::string, std::vector<std::string>>>
    coveredGroups() const;

  private:
    /**
     * Per-benchmark acquisition slot, index-aligned with _names.
     * `continuations` holds callbacks registered by run() for
     * benchmarks still in flight; they fire (outside the lock) the
     * moment the trace lands, receiving a pointer into _traces -
     * nullptr when acquisition failed.
     */
    struct AcquireSlot
    {
        bool done = false;
        const Trace *trace = nullptr;
        std::vector<std::function<void(const Trace *)>> continuations;
    };

    /** Acquisition task epilogue: publish one benchmark's outcome. */
    void finishAcquire(std::size_t index, bool ok, bool from_cache,
                       Trace trace, const RunError &error);

    /**
     * Run @p continuation with benchmark @p index's trace: inline
     * right now if acquisition already finished, otherwise when it
     * does (on the finishing task's thread).
     */
    void onTraceReady(
        std::size_t index,
        std::function<void(const Trace *)> continuation) const;

    /** Block until every acquisition task published its outcome;
     *  asserts when called from an executor worker too early. */
    void waitAcquisition() const;

    /** Record the trace-source counters into @p metrics, once per
     *  runner (no-op for a null sink). */
    void publishTraceSource(RunMetrics *metrics) const;

    std::vector<std::string> _names;
    RunConfig _config;
    /** Snapshot of the constructor flag: together with a benchmark
     *  name it reproduces the trace cache key, which run() folds
     *  into result-store cell keys without waiting for the trace. */
    bool _emitConditionals = false;
    std::map<std::string, Trace> _traces;
    std::map<std::string, RunError> _failedTraces;
    TraceSourceStats _traceStats;
    // One-shot publication latch for the trace-source telemetry;
    // its presence also makes SuiteRunner non-copyable, which is
    // intentional (runners hold the full trace corpus).
    mutable std::atomic<bool> _traceStatsPublished{false};

    /** Guards _acquire/_traces/_failedTraces/_traceStats until
     *  acquisition completes (immutable afterwards). */
    mutable std::mutex _acquireMutex;
    mutable std::condition_variable _acquireCv;
    mutable std::vector<AcquireSlot> _acquire;
    mutable std::size_t _acquireRemaining = 0;
    std::chrono::steady_clock::time_point _acquireStart;

    /**
     * The in-flight acquisition tasks. Declared LAST so it is
     * destroyed FIRST: the Batch destructor waits for the tasks,
     * which reference every member above.
     */
    mutable std::unique_ptr<Executor::Batch> _acquireBatch;
};

} // namespace ibp

#endif // IBP_SIM_SUITE_RUNNER_HH
