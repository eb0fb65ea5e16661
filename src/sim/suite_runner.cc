#include "sim/suite_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <thread>

#include "core/simd.hh"
#include "robust/fault_injection.hh"
#include "sim/result_store.hh"
#include "trace/trace_cache.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace ibp {

namespace {

/** How long a deferred cell waits for its claim owner to persist it
 *  before this runner simulates it anyway (IBP_CLAIM_WAIT seconds;
 *  duplicate simulations are benign, the store write is atomic). */
double
claimWaitCeilingSeconds()
{
    if (const char *env = std::getenv("IBP_CLAIM_WAIT")) {
        const double parsed = std::atof(env);
        if (parsed > 0.0)
            return parsed;
    }
    return 300.0;
}

} // namespace

void
GridResult::set(const std::string &column, const std::string &benchmark,
                double miss_percent)
{
    _rates[column][benchmark] = miss_percent;
}

double
GridResult::get(const std::string &column,
                const std::string &benchmark) const
{
    const auto col = _rates.find(column);
    IBP_ASSERT(col != _rates.end(), "unknown column '%s'",
               column.c_str());
    const auto cell = col->second.find(benchmark);
    IBP_ASSERT(cell != col->second.end(),
               "column '%s' has no benchmark '%s'", column.c_str(),
               benchmark.c_str());
    return cell->second;
}

bool
GridResult::has(const std::string &column,
                const std::string &benchmark) const
{
    const auto col = _rates.find(column);
    return col != _rates.end() &&
           col->second.find(benchmark) != col->second.end();
}

void
GridResult::setFailed(FailedCell cell)
{
    _failures.push_back(std::move(cell));
}

std::size_t
GridResult::presentCount(const std::string &column,
                         const std::vector<std::string> &members) const
{
    std::size_t count = 0;
    for (const auto &member : members) {
        if (has(column, member))
            ++count;
    }
    return count;
}

double
GridResult::average(const std::string &column,
                    const std::vector<std::string> &members) const
{
    // Partial grids average what survived: failed members are
    // skipped rather than poisoning the group. Callers that must
    // not silently degrade check presentCount() first.
    std::vector<double> rates;
    rates.reserve(members.size());
    for (const auto &member : members) {
        if (has(column, member))
            rates.push_back(get(column, member));
    }
    if (rates.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return mean(rates);
}

SuiteRunner::SuiteRunner(std::vector<std::string> benchmarks,
                         bool emit_conditionals, RunConfig config)
    : _names(std::move(benchmarks)), _config(std::move(config)),
      _emitConditionals(emit_conditionals)
{
    // An unknown benchmark name is a startup configuration error and
    // must fatal() on the calling thread, not inside a pool task.
    for (const auto &name : _names)
        benchmarkProfile(name);

    _acquireStart = std::chrono::steady_clock::now();
    _acquire.resize(_names.size());
    _acquireRemaining = _names.size();

    Executor &executor = Executor::global();
    executor.ensureWorkers(simulationThreads());
    _acquireBatch = std::make_unique<Executor::Batch>(executor);

    TraceCache *cache = TraceCache::global();
    for (std::size_t i = 0; i < _names.size(); ++i) {
        _acquireBatch->spawn([this, i, emit_conditionals, cache]() {
            const std::string &name = _names[i];
            const auto generate = [&]() -> Result<Trace> {
                return runWithRetries(
                    _config.retry, [&](unsigned attempt) {
                        _config.faults.check("trace", name, attempt);
                        return generateBenchmarkTrace(
                            name, emit_conditionals,
                            _config.eventScale);
                    });
            };
            if (cache) {
                // getOrGenerate coordinates concurrent callers of
                // the same cold key (one generation, everyone else
                // loads the stored entry) - load-or-generate-store
                // would duplicate work the moment two daemon
                // clients, or two runners in one process, race on a
                // cold cache.
                const std::string key = benchmarkTraceCacheKey(
                    name, emit_conditionals, _config.eventScale);
                auto acquired =
                    cache->getOrGenerate(key, generate, name);
                if (!acquired.ok()) {
                    finishAcquire(i, false, false, Trace{},
                                  acquired.error());
                    return;
                }
                const bool from_cache = acquired.value().fromCache;
                finishAcquire(i, true, from_cache,
                              std::move(acquired.value().trace),
                              RunError{});
                return;
            }
            auto made = generate();
            if (!made.ok()) {
                finishAcquire(i, false, false, Trace{}, made.error());
                return;
            }
            finishAcquire(i, true, false, std::move(made).value(),
                          RunError{});
        });
    }
}

SuiteRunner::~SuiteRunner()
{
    // _acquireBatch is the first-destroyed member and its destructor
    // waits, but be explicit: no acquisition task may outlive the
    // members it writes to.
    if (_acquireBatch)
        _acquireBatch->wait();
}

void
SuiteRunner::finishAcquire(std::size_t index, bool ok, bool from_cache,
                           Trace trace, const RunError &error)
{
    const std::string &name = _names[index];
    std::vector<std::function<void(const Trace *)>> continuations;
    const Trace *published = nullptr;
    {
        std::lock_guard<std::mutex> lock(_acquireMutex);
        if (ok) {
            if (from_cache) {
                ++_traceStats.cacheHits;
                if (trace.readPath() == TraceReadPath::Mmap)
                    ++_traceStats.mmapHits;
                else
                    ++_traceStats.streamHits;
            } else {
                ++_traceStats.generated;
            }
            // std::map nodes are pointer-stable, so handing the
            // address to continuations is safe for the runner's
            // lifetime (duplicate names keep the first trace).
            const auto [it, inserted] =
                _traces.emplace(name, std::move(trace));
            published = &it->second;
        } else {
            warn("trace generation for '%s' failed: %s", name.c_str(),
                 error.describe().c_str());
            _failedTraces.emplace(name, error);
        }
        AcquireSlot &slot = _acquire[index];
        slot.done = true;
        slot.trace = published;
        continuations.swap(slot.continuations);
        if (--_acquireRemaining == 0) {
            _traceStats.seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - _acquireStart)
                    .count();
        }
    }
    _acquireCv.notify_all();
    // Continuations run outside the lock: they spawn simulation work
    // (SuiteRunner::run overlapping with acquisition) and must not
    // hold up other finishing tasks.
    for (auto &continuation : continuations)
        continuation(published);
}

void
SuiteRunner::onTraceReady(
    std::size_t index,
    std::function<void(const Trace *)> continuation) const
{
    const Trace *published = nullptr;
    {
        std::lock_guard<std::mutex> lock(_acquireMutex);
        AcquireSlot &slot = _acquire[index];
        if (!slot.done) {
            slot.continuations.push_back(std::move(continuation));
            return;
        }
        published = slot.trace;
    }
    continuation(published);
}

void
SuiteRunner::waitAcquisition() const
{
    std::unique_lock<std::mutex> lock(_acquireMutex);
    _acquireCv.wait(lock, [&] { return _acquireRemaining == 0; });
}

const std::map<std::string, RunError> &
SuiteRunner::failedBenchmarks() const
{
    waitAcquisition();
    return _failedTraces;
}

const TraceSourceStats &
SuiteRunner::traceSourceStats() const
{
    waitAcquisition();
    return _traceStats;
}

SuiteRunner
SuiteRunner::avgSuite(bool emit_conditionals, const RunConfig &config)
{
    return SuiteRunner(benchmarkGroups().avg, emit_conditionals,
                       config);
}

SuiteRunner
SuiteRunner::fullSuite(bool emit_conditionals, const RunConfig &config)
{
    std::vector<std::string> names = benchmarkGroups().avg;
    const auto &infrequent = benchmarkGroups().infrequent;
    names.insert(names.end(), infrequent.begin(), infrequent.end());
    return SuiteRunner(std::move(names), emit_conditionals, config);
}

const Trace &
SuiteRunner::trace(const std::string &benchmark) const
{
    waitAcquisition();
    const auto it = _traces.find(benchmark);
    IBP_ASSERT(it != _traces.end(), "benchmark '%s' not loaded",
               benchmark.c_str());
    return it->second;
}

GridResult
SuiteRunner::run(const std::vector<SweepColumn> &columns,
                 RunSession &session) const
{
    const RetryPolicy &retry = _config.retry;
    const FaultInjector &faults = _config.faults;
    const unsigned grid_id = session.nextGridId++;
    RunMetrics *metrics = session.metrics;
    CheckpointJournal *journal = session.checkpoint;
    // Drain support (docs/SERVICE.md): once the session's abort flag
    // reads true, no NEW cell starts; cells already simulating finish
    // and are journalled, unstarted cells stay absent from the grid.
    const auto aborted = [&session]() {
        return session.abort != nullptr &&
               session.abort->load(std::memory_order_acquire);
    };
    const auto notifyCell = [&session]() {
        if (session.onCellFinished)
            session.onCellFinished();
    };

    Executor &executor = Executor::global();
    executor.ensureWorkers(simulationThreads());

    struct Job
    {
        const SweepColumn *column;
        /** Filled at the acquisition barrier, for the steal sweep and
         *  the deferred-wait loop (grid chunks get the trace through
         *  their continuation, the moment it exists). */
        const Trace *trace = nullptr;
        const std::string *benchmark;
        double missPercent = 0.0;
        bool done = false;
        bool failed = false;
        RunError error;
        /** Result-store cell key; empty = don't probe or persist
         *  (store disabled, column unkeyed, or injector armed). */
        std::string storeKey;
        /** Claimed by a live peer at construction time: in no grid
         *  chunk, resolved by the deferred-wait loop (served from the
         *  store, or simulated if the owner gave up). */
        bool deferred = false;
        /** Another shard's cell, tracked only as a work-stealing
         *  candidate; in no grid chunk. */
        bool foreign = false;
    };

    // Content-addressed result store (docs/PERFORMANCE.md): keyed
    // columns probe it before simulating and persist what they
    // compute. A run with armed faults bypasses the store wholesale -
    // injected faults must reach a real simulation, and a faulted
    // run must never pollute the store.
    ResultStore *store =
        faults.armed() ? nullptr : ResultStore::global();
    // Shard fan-out and cell claims both communicate through the
    // store; without one they degrade to a plain full run (correct,
    // just unshared). See the RunSession field docs.
    const bool shard_active = store != nullptr &&
                              session.shardCount > 1 &&
                              !_names.empty();
    const unsigned shard_count =
        shard_active ? session.shardCount : 1;
    const unsigned shard_index =
        shard_active ? session.shardIndex % shard_count : 0;
    const bool claims_active = store != nullptr && session.cellClaims;
    // hits/misses/invalidated/journalWritebacks are only touched in
    // the single-threaded construction loop below; stores happen on
    // worker threads and are counted separately via an atomic.
    ResultStoreStats store_stats;
    std::atomic<unsigned> store_writes{0};
    std::atomic<unsigned> stolen_cells{0};
    // Cell keys need each benchmark's trace cache key, computable
    // from the name alone (no need to wait for acquisition); cached
    // because profile hashing is per-benchmark work, not per-cell.
    std::map<std::string, std::string> trace_keys;
    const auto traceKeyOf =
        [&](const std::string &name) -> const std::string & {
        auto it = trace_keys.find(name);
        if (it == trace_keys.end()) {
            it = trace_keys
                     .emplace(name, benchmarkTraceCacheKey(
                                        name, _emitConditionals,
                                        _config.eventScale))
                     .first;
        }
        return it->second;
    };

    GridResult grid;
    std::vector<Job> jobs;
    jobs.reserve(columns.size() * _names.size());
    // Claim handles, index-aligned with jobs (CellClaim is move-only
    // and Job is an aggregate; a parallel vector keeps Job cheap).
    // Never resized after construction, so finishCell can release a
    // cell's claim from its worker thread without locking; whatever
    // is still held at return (drained / deferred / failed cells)
    // releases via the destructors.
    std::vector<CellClaim> cell_claims;
    cell_claims.reserve(columns.size() * _names.size());
    const auto pushJob = [&](Job job, CellClaim claim = {}) {
        jobs.push_back(std::move(job));
        cell_claims.push_back(std::move(claim));
    };
    // Serve one cell from a stored entry: identical bookkeeping to
    // the warm-probe hit path, reused by the post-claim re-probe and
    // the deferred-wait loop (stored integer counters make the
    // restored miss rate bit-identical to a cold computation).
    const auto serveStored = [&](const SweepColumn &column,
                                 const std::string &name,
                                 const StoredResult &cell) {
        grid.set(column.label, name, cell.missPercent);
        if (metrics && cell.hasCounters) {
            CellMetrics restored_cell;
            restored_cell.column = column.label;
            restored_cell.benchmark = name;
            restored_cell.branches = cell.branches;
            restored_cell.seconds = cell.seconds;
            restored_cell.groupSeconds = cell.groupSeconds;
            restored_cell.secondsSynthetic = cell.sharedTraversal;
            restored_cell.tableOccupancy = cell.tableOccupancy;
            restored_cell.tableCapacity = cell.tableCapacity;
            metrics->recordCell(restored_cell);
        }
        if (journal) {
            // Journalled like any finished cell, so a
            // drained-and-resumed sweep stays coherent.
            const auto appended = journal->append(
                CheckpointCell{grid_id, column.label, name,
                               cell.missPercent});
            if (!appended.ok()) {
                warn("checkpoint append failed for %s/%s: %s",
                     column.label.c_str(), name.c_str(),
                     appended.error().describe().c_str());
            }
        }
        notifyCell();
    };
    for (const auto &column : columns) {
        for (std::size_t name_index = 0;
             name_index < _names.size(); ++name_index) {
            const std::string &name = _names[name_index];
            // Resume: a journalled cell is restored verbatim, not
            // recomputed (it carries the full-precision miss rate).
            // Benchmarks whose acquisition fails are resolved after
            // the acquisition barrier below - their cells fail
            // without ever simulating.
            if (journal) {
                const auto restored =
                    journal->lookup(grid_id, column.label, name);
                if (restored) {
                    grid.set(column.label, name, *restored);
                    // Checkpoint/result-store interplay: the journal
                    // resurrected this cell, so it is NOT a store
                    // hit - but its value is worth persisting so the
                    // next journal-less warm run finds it. Written
                    // back exactly once (contains() guards reruns of
                    // the same journal); the journal records only
                    // the miss rate, so the entry carries no
                    // counters.
                    if (store && column.specHash != 0) {
                        const std::string key = ResultStore::cellKey(
                            traceKeyOf(name), column.specHash);
                        if (!store->contains(key)) {
                            StoredResult entry;
                            entry.benchmark = name;
                            entry.hasCounters = false;
                            entry.missPercent = *restored;
                            const auto written =
                                store->store(key, entry);
                            if (written.ok()) {
                                ++store_stats.journalWritebacks;
                            } else {
                                warn("result store write-back for "
                                     "%s/%s failed: %s",
                                     column.label.c_str(),
                                     name.c_str(),
                                     written.error()
                                         .describe()
                                         .c_str());
                            }
                        }
                    }
                    notifyCell();
                    continue;
                }
                // Poisoning: a cell with this many start records but
                // no completion killed (or hung) every prior
                // incarnation that tried it. Another attempt would
                // crash-loop the sweep, so record a timeout failure
                // and move on (docs/ROBUSTNESS.md).
                const unsigned prior = journal->startedCountPrior(
                    grid_id, column.label, name);
                if (prior >= retry.poisonThreshold) {
                    const std::string message =
                        "cell poisoned: " + std::to_string(prior) +
                        " prior incarnations died inside it";
                    if (metrics) {
                        metrics->recordFailure(FailureRecord{
                            column.label, name, message,
                            errorKindName(ErrorKind::Timeout),
                            prior});
                    }
                    grid.setFailed(FailedCell{column.label, name,
                                              message,
                                              ErrorKind::Timeout,
                                              prior});
                    notifyCell();
                    continue;
                }
            }
            std::string store_key;
            if (store && column.specHash != 0) {
                store_key = ResultStore::cellKey(traceKeyOf(name),
                                                 column.specHash);
            }
            // Shard filter: only the owner shard simulates a cell;
            // other shards either track it as a steal candidate or
            // skip it outright (the merge pass restores it from the
            // store). Unkeyed cells cannot flow through the store,
            // so every shard leaves them for the merge.
            if (shard_active) {
                if (store_key.empty())
                    continue;
                const unsigned owner = static_cast<unsigned>(
                    (name_index + grid_id) % shard_count);
                if (owner != shard_index) {
                    if (session.shardSteal) {
                        pushJob(Job{&column, nullptr, &name, 0.0,
                                    false, false, {},
                                    std::move(store_key), false,
                                    true});
                    }
                    continue;
                }
            }
            // Warm probe: a keyed cell whose inputs (trace key x
            // spec hash x simulator version x table impl) match a
            // stored entry is loaded instead of simulated - the
            // stored integer counters make the restored miss rate
            // bit-identical to a cold computation. A quarantined
            // entry counts as invalidated and the cell re-simulates.
            if (!store_key.empty()) {
                const auto loaded = store->load(store_key);
                if (loaded.status == ResultStore::LoadStatus::Hit) {
                    ++store_stats.hits;
                    serveStored(column, name, loaded.result);
                    continue;
                }
                if (loaded.status ==
                    ResultStore::LoadStatus::Invalidated) {
                    ++store_stats.invalidated;
                } else {
                    ++store_stats.misses;
                }
                if (claims_active) {
                    CellClaim claim = store->tryClaim(store_key);
                    if (claim.busy()) {
                        // A live peer is computing this cell right
                        // now: defer it and serve it from the store
                        // once the peer persists it (the cross-shard
                        // / cross-request exactly-once path).
                        ++store_stats.claimBusy;
                        pushJob(Job{&column, nullptr, &name, 0.0,
                                    false, false, {},
                                    std::move(store_key), true});
                        continue;
                    }
                    // The previous owner may have stored the entry
                    // and released between our probe and this claim;
                    // re-probe so we serve instead of re-simulating.
                    const auto raced = store->load(store_key);
                    if (raced.status ==
                        ResultStore::LoadStatus::Hit) {
                        ++store_stats.claimServed;
                        serveStored(column, name, raced.result);
                        continue;
                    }
                    ++store_stats.claims;
                    pushJob(Job{&column, nullptr, &name, 0.0, false,
                                false, {}, std::move(store_key)},
                            std::move(claim));
                    continue;
                }
            }
            pushJob(Job{&column, nullptr, &name, 0.0, false, false,
                        {}, std::move(store_key)});
        }
    }

    const auto grid_start = std::chrono::steady_clock::now();

    // Record one finished cell, whichever chunk simulated it.
    const auto finishCell = [&](Job &job, const SimResult &result) {
        job.missPercent = result.missPercent();
        job.done = true;
        if (metrics) {
            // One record per finished cell - never inside the
            // per-branch simulation loop.
            CellMetrics cell;
            cell.column = job.column->label;
            cell.benchmark = *job.benchmark;
            cell.branches = result.branches;
            cell.seconds = result.seconds;
            cell.groupSeconds = result.groupSeconds;
            cell.secondsSynthetic = result.sharedTraversal;
            cell.tableOccupancy = result.tableOccupancy;
            cell.tableCapacity = result.tableCapacity;
            metrics->recordCell(cell);
        }
        if (journal) {
            const auto appended = journal->append(CheckpointCell{
                grid_id, job.column->label, *job.benchmark,
                job.missPercent});
            if (!appended.ok()) {
                warn("checkpoint append failed for %s/%s: %s",
                     job.column->label.c_str(), job.benchmark->c_str(),
                     appended.error().describe().c_str());
            }
        }
        // Persist the freshly computed cell (atomic write; a full
        // disk degrades the store, never the run). Runs on worker
        // threads, hence the atomic write counter.
        if (store && !job.storeKey.empty()) {
            StoredResult entry;
            entry.benchmark = *job.benchmark;
            entry.predictor = result.predictor;
            entry.hasCounters = true;
            entry.branches = result.branches;
            entry.misses = result.misses;
            entry.noPrediction = result.noPrediction;
            entry.tableOccupancy = result.tableOccupancy;
            entry.tableCapacity = result.tableCapacity;
            entry.seconds = result.seconds;
            entry.groupSeconds = result.groupSeconds;
            entry.sharedTraversal = result.sharedTraversal;
            entry.missPercent = job.missPercent;
            const auto written = store->store(job.storeKey, entry);
            if (written.ok()) {
                store_writes.fetch_add(1, std::memory_order_relaxed);
            } else {
                warn("result store write for %s/%s failed: %s",
                     job.column->label.c_str(),
                     job.benchmark->c_str(),
                     written.error().describe().c_str());
            }
        }
        // Release the cell claim AFTER the store write, so a peer
        // that wins the next claim finds the entry instead of
        // re-simulating. Jobs never reallocate after construction,
        // so the index is stable and each element has one owner.
        const auto job_index =
            static_cast<std::size_t>(&job - jobs.data());
        if (job_index < cell_claims.size())
            cell_claims[job_index].release();
        notifyCell();
    };

    // Engine telemetry, shared by concurrent chunks: chunk outcomes
    // (a "group" is one grid chunk; split-on-idle can divide a
    // benchmark's columns across several) and the counters of every
    // traversal that completed (metrics.simd, metrics.sweep_kernel).
    std::mutex telemetry_mutex;
    SweepKernelStats sweep;
    TraversalStats traversed;
    const auto countChunk = [&](unsigned SweepKernelStats::*outcome) {
        std::lock_guard<std::mutex> lock(telemetry_mutex);
        ++(sweep.*outcome);
    };

    // Fresh predictors for @p members, in order; throws when a
    // factory throws or returns null.
    const auto makePredictors =
        [&](const std::vector<std::size_t> &members) {
            std::vector<std::unique_ptr<IndirectPredictor>> predictors;
            predictors.reserve(members.size());
            for (const std::size_t j : members) {
                predictors.push_back(jobs[j].column->make());
                if (!predictors.back()) {
                    throw RunException(RunError::permanent(
                        "predictor factory for '" +
                        jobs[j].column->label + "' returned null"));
                }
            }
            return predictors;
        };

    // The one engine call: @p predictors over @p trace in a single
    // simulateMany traversal, under a deadline of the per-cell
    // budget times the cell count. Throws what the engine throws.
    const auto traverse =
        [&](const Trace &trace,
            const std::vector<std::unique_ptr<IndirectPredictor>>
                &predictors) {
            std::vector<IndirectPredictor *> raw;
            raw.reserve(predictors.size());
            for (const auto &predictor : predictors)
                raw.push_back(predictor.get());
            SimOptions options;
            if (retry.cellDeadlineSeconds > 0.0) {
                options.deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            retry.cellDeadlineSeconds *
                            static_cast<double>(raw.size())));
            }
            TraversalStats traversal;
            options.traversal = &traversal;
            std::vector<SimResult> results =
                simulateMany(raw, trace, options);
            std::lock_guard<std::mutex> lock(telemetry_mutex);
            traversed += traversal;
            return results;
        };

    // A one-cell chunk: the isolated path every cell falls back to,
    // and the only path of the steal sweep and the deferred-wait
    // loop - journal start records, the retry policy, the per-cell
    // deadline and the "sim" fault site. record_failure=false leaves
    // a failed cell pending instead of failing the grid - a stolen
    // cell's owner (or the merge pass) remains responsible for it.
    const auto runCell = [&](Job &job, const Trace &trace,
                             bool record_failure) {
        // Draining: leave the cell unstarted (not failed), so the
        // resumed run picks it up.
        if (aborted())
            return;
        const std::size_t j =
            static_cast<std::size_t>(&job - jobs.data());
        const std::string fault_key = std::to_string(grid_id) + "/" +
                                      job.column->label + "/" +
                                      *job.benchmark;
        // Attempts of dead incarnations count: seeding the
        // fault-injection attempt with the journalled start count
        // lets a deterministic injected crash/hang clear when a
        // fresh process retries the cell.
        const unsigned prior_starts =
            journal ? journal->startedCountPrior(
                          grid_id, job.column->label, *job.benchmark)
                    : 0;
        auto outcome = runWithRetries(
            retry, [&](unsigned attempt) {
                if (journal) {
                    const auto marked = journal->appendStart(
                        CheckpointStart{grid_id, job.column->label,
                                        *job.benchmark});
                    if (!marked.ok()) {
                        warn("checkpoint start append failed"
                             " for %s/%s: %s",
                             job.column->label.c_str(),
                             job.benchmark->c_str(),
                             marked.error().describe().c_str());
                    }
                }
                faults.check("sim", fault_key, prior_starts + attempt);
                return traverse(trace, makePredictors({j})).front();
            });
        if (!outcome.ok()) {
            if (!record_failure)
                return;
            job.failed = true;
            job.error = outcome.error();
            if (metrics) {
                metrics->recordFailure(FailureRecord{
                    job.column->label, *job.benchmark,
                    job.error.message, errorKindName(job.error.kind),
                    job.error.attempts});
            }
            notifyCell();
            return;
        }
        finishCell(job, outcome.value());
    };

    // Grid chunks: all pending columns of a benchmark share ONE
    // trace traversal, each chunk runnable the moment its trace
    // lands (onTraceReady continuation -> executor task). Any
    // failure inside a chunk (factory error, deadline, injected
    // "fused" fault, anything the engine throws) re-spawns its cells
    // as one-cell chunks under the full per-cell isolation; results
    // are bit-identical either way, since a column's counters do not
    // depend on its traversal mates. When the "sim" fault site is
    // armed, chunks start as single cells: its faults are defined
    // per (cell, attempt).
    {
        std::vector<std::vector<std::size_t>> groups;
        std::map<std::string, std::size_t> group_of;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            // Deferred cells resolve through the store; foreign
            // cells only through the steal sweep.
            if (jobs[j].deferred || jobs[j].foreign)
                continue;
            const auto [it, fresh] = group_of.try_emplace(
                *jobs[j].benchmark, groups.size());
            if (fresh)
                groups.emplace_back();
            groups[it->second].push_back(j);
        }
        const bool per_cell = faults.armedFor("sim");
        if (per_cell)
            sweep.fallbackInjectorArmed =
                static_cast<unsigned>(groups.size());

        Executor::Batch batch(executor);
        const auto spawnCells =
            [&](const Trace *trace,
                const std::vector<std::size_t> &members) {
                for (const std::size_t j : members) {
                    batch.spawn([&runCell, &jobs, trace, j]() {
                        runCell(jobs[j], *trace, true);
                    });
                }
            };

        // Declared as a std::function so split-off halves can
        // re-enter it.
        std::function<void(const Trace *, std::vector<std::size_t>)>
            runChunk = [&](const Trace *trace,
                           std::vector<std::size_t> members) {
                // Draining: leave the chunk's cells unstarted.
                if (aborted())
                    return;
                // Split-on-idle: while other workers are parked,
                // hand them half of this chunk. Each half is its own
                // traversal; per-column results do not depend on
                // chunk composition, so splitting cannot change any
                // counter.
                while (members.size() > 1 &&
                       executor.idleWorkers() > 0) {
                    const std::size_t keep = members.size() / 2;
                    std::vector<std::size_t> given(
                        members.begin() +
                            static_cast<std::ptrdiff_t>(keep),
                        members.end());
                    members.resize(keep);
                    batch.spawn([&runChunk, trace,
                                 given = std::move(given)]() mutable {
                        runChunk(trace, std::move(given));
                    });
                }

                const auto fallBack =
                    [&](unsigned SweepKernelStats::*why) {
                        countChunk(why);
                        spawnCells(trace, members);
                    };
                try {
                    faults.check("fused",
                                 std::to_string(grid_id) + "/" +
                                     *jobs[members.front()].benchmark);
                } catch (const RunException &) {
                    fallBack(&SweepKernelStats::fallbackInjected);
                    return;
                }

                if (journal) {
                    // One batched start record per chunk member: if
                    // the process dies inside this traversal, the
                    // resuming run knows which cells were in flight.
                    // A single fsync covers the chunk.
                    std::vector<CheckpointStart> starts;
                    starts.reserve(members.size());
                    for (const std::size_t j : members) {
                        starts.push_back(CheckpointStart{
                            grid_id, jobs[j].column->label,
                            *jobs[j].benchmark});
                    }
                    const auto marked = journal->appendStarts(starts);
                    if (!marked.ok()) {
                        warn("checkpoint start append failed: %s",
                             marked.error().describe().c_str());
                    }
                }

                std::vector<std::unique_ptr<IndirectPredictor>>
                    predictors;
                try {
                    predictors = makePredictors(members);
                } catch (...) {
                    fallBack(&SweepKernelStats::fallbackFactory);
                    return;
                }
                std::vector<SimResult> results;
                try {
                    results = traverse(*trace, predictors);
                } catch (const RunException &exception) {
                    fallBack(exception.error().kind ==
                                     ErrorKind::Timeout
                                 ? &SweepKernelStats::fallbackCancelled
                                 : &SweepKernelStats::fallbackError);
                    return;
                } catch (...) {
                    fallBack(&SweepKernelStats::fallbackError);
                    return;
                }
                for (std::size_t i = 0; i < members.size(); ++i)
                    finishCell(jobs[members[i]], results[i]);
                countChunk(&SweepKernelStats::groupsFused);
            };

        // Acquisition slot index of each benchmark name (first
        // occurrence wins, matching finishAcquire).
        std::map<std::string, std::size_t> name_index;
        for (std::size_t i = 0; i < _names.size(); ++i)
            name_index.try_emplace(_names[i], i);

        for (const auto &members : groups) {
            const std::size_t index =
                name_index.at(*jobs[members.front()].benchmark);
            // defer() reserves the chunk in the batch before the
            // trace exists, so batch.wait() below cannot return
            // while any chunk is still gated on acquisition.
            batch.defer();
            onTraceReady(index, [&batch, &runChunk, &spawnCells,
                                 per_cell,
                                 members](const Trace *trace) {
                if (trace == nullptr) {
                    // Acquisition failed; the jobs are resolved as
                    // failed cells after the barrier below.
                    batch.cancelDeferred();
                    return;
                }
                batch.spawnDeferred(
                    [&runChunk, &spawnCells, per_cell, trace,
                     members]() {
                        if (per_cell)
                            spawnCells(trace, members);
                        else
                            runChunk(trace, members);
                    });
            });
        }
        batch.wait();
    }

    // Acquisition barrier: failed-trace resolution, the steal sweep
    // and the deferred-wait loop need every outcome, not just the
    // ones the chunks consumed.
    waitAcquisition();
    for (auto &job : jobs) {
        if (job.done || job.failed)
            continue;
        const auto failed_trace = _failedTraces.find(*job.benchmark);
        if (failed_trace != _failedTraces.end()) {
            // A benchmark whose trace never materialised fails every
            // cell up front - no point retrying the simulation.
            const RunError &cause = failed_trace->second;
            job.failed = true;
            job.error = cause;
            job.error.message = cause.describe();
            // A foreign steal candidate was never this shard's work:
            // mark it unstealable without charging this shard a
            // failure record or a progress tick.
            if (job.foreign)
                continue;
            if (metrics) {
                metrics->recordFailure(
                    FailureRecord{job.column->label, *job.benchmark,
                                  cause.describe(),
                                  errorKindName(cause.kind),
                                  cause.attempts});
            }
            notifyCell();
            continue;
        }
        job.trace = &_traces.at(*job.benchmark);
    }

    // Steal sweep: with our own partition done, pick up foreign
    // cells whose owner shard has neither stored nor claimed them
    // (it crashed, or is simply slower). Claim-gated, so a live
    // owner mid-cell is never duplicated; a stolen cell's store
    // entry is what the merge pass (and the owner's own warm probe)
    // serves.
    if (shard_active && session.shardSteal) {
        Executor::Batch batch(executor);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (!jobs[j].foreign || jobs[j].failed)
                continue;
            batch.spawn([&, j]() {
                if (aborted())
                    return;
                Job &job = jobs[j];
                if (store->contains(job.storeKey))
                    return; // the owner already persisted it
                CellClaim claim = store->tryClaim(job.storeKey);
                if (!claim.acquired())
                    return; // the owner is computing it right now
                if (store->contains(job.storeKey))
                    return; // it landed while we claimed
                runCell(job, *job.trace, false);
                if (job.done) {
                    stolen_cells.fetch_add(1,
                                           std::memory_order_relaxed);
                }
                // ~CellClaim releases AFTER finishCell's store
                // write, so the next claimant finds the entry.
            });
        }
        batch.wait();
    }

    // Deferred-wait loop: cells another claimant was computing when
    // we started. Poll the store (the owner's finishCell persists
    // there), and retry the claim each round - acquiring it means
    // the owner gave up (drained, crashed) without storing, making
    // the cell ours. Past the wait ceiling, simulate regardless:
    // a duplicate simulation is benign (atomic store writes),
    // a grid hole is not.
    if (store != nullptr) {
        std::vector<std::size_t> waiting;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (jobs[j].deferred && !jobs[j].done && !jobs[j].failed)
                waiting.push_back(j);
        }
        const auto give_up_at =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    claimWaitCeilingSeconds()));
        bool force = false;
        while (!waiting.empty() && !aborted()) {
            std::vector<std::size_t> still;
            for (const std::size_t j : waiting) {
                Job &job = jobs[j];
                const auto loaded = store->load(job.storeKey);
                if (loaded.status == ResultStore::LoadStatus::Hit) {
                    // The owner delivered: one simulation, N
                    // consumers.
                    ++store_stats.claimServed;
                    serveStored(*job.column, *job.benchmark,
                                loaded.result);
                    job.done = true;
                    job.missPercent = loaded.result.missPercent;
                    continue;
                }
                if (force) {
                    runCell(job, *job.trace, true);
                    continue;
                }
                CellClaim claim = store->tryClaim(job.storeKey);
                if (!claim.acquired()) {
                    still.push_back(j);
                    continue;
                }
                // The owner is gone without storing; the cell is
                // ours now (~CellClaim releases after the store
                // write inside finishCell).
                ++store_stats.claims;
                runCell(job, *job.trace, true);
            }
            waiting = std::move(still);
            if (waiting.empty())
                break;
            if (std::chrono::steady_clock::now() >= give_up_at) {
                force = true;
                continue;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }

    const unsigned threads_used = std::max(
        1u, static_cast<unsigned>(std::min<std::size_t>(
                executor.workerCount(), jobs.size())));

    if (metrics) {
        metrics->recordThreads(threads_used);
        metrics->recordRunWindow(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - grid_start)
                .count());
        // Once per runner: whether this run paid the trace
        // generation cost or rode the cache (the CI cache-smoke job
        // asserts on these counters).
        if (!_traceStatsPublished.exchange(true)) {
            metrics->recordTraceSource(_traceStats.generated,
                                       _traceStats.mmapHits,
                                       _traceStats.streamHits,
                                       _traceStats.seconds);
        }
        // Chunk observability, mirroring trace_source: how many grid
        // chunks completed as one traversal and why any fell back.
        if (!jobs.empty()) {
            sweep.groupsPerCell =
                sweep.fallbackFactory + sweep.fallbackCancelled +
                sweep.fallbackInjected + sweep.fallbackError +
                sweep.fallbackInjectorArmed;
            sweep.predictorsBound = traversed.predictorsBound;
            sweep.predictorsUnbound = traversed.predictorsUnbound;
            sweep.predictorsDeduped = traversed.predictorsDeduped;
            metrics->recordSweepKernel(sweep);
        }
        // SIMD/SoA observability: the process-wide dispatch level is
        // always worth recording; the traversal counters are summed
        // over every completed traversal (see traverse above).
        {
            SimdStats simd;
            simd.dispatchLevel = simdLevelName(simdLevel());
            simd.fallbackReason = simdFallbackReason();
            simd.columnarBlocks = traversed.columnarBlocks;
            simd.transposedBlocks = traversed.transposedBlocks;
            simd.skippedRecords = traversed.skippedRecords;
            simd.laneColumns = traversed.laneColumns;
            simd.genericColumns = traversed.genericColumns;
            simd.laneMachines = traversed.laneMachines;
            metrics->recordSimd(simd);
        }
        // Result-store observability: recorded whenever the store
        // was armed for this run (even an all-miss cold pass), so
        // the CI warm-store gate can assert hits == cells with zero
        // misses on the warm artifact.
        if (store) {
            store_stats.stores =
                store_writes.load(std::memory_order_relaxed);
            store_stats.stolen =
                stolen_cells.load(std::memory_order_relaxed);
            metrics->recordResultStore(store_stats);
        }
    }

    for (auto &job : jobs) {
        if (job.foreign && !job.done) {
            // Unstolen foreign cells are the owner's (or the merge
            // pass's) problem, failed traces included; they must not
            // mark this shard's grid partial.
            continue;
        }
        if (job.failed) {
            grid.setFailed(FailedCell{
                job.column->label, *job.benchmark, job.error.message,
                job.error.kind, job.error.attempts});
        } else if (job.done) {
            grid.set(job.column->label, *job.benchmark,
                     job.missPercent);
        }
        // Neither done nor failed: the drain flag stopped the cell
        // before it started. It stays absent from the grid, exactly
        // like a journal-restored run never saw it.
    }
    return grid;
}

GridResult
SuiteRunner::run(const std::vector<SweepColumn> &columns,
                 RunMetrics *metrics) const
{
    RunSession session;
    session.metrics = metrics;
    return run(columns, session);
}

std::vector<std::pair<std::string, std::vector<std::string>>>
SuiteRunner::coveredGroups() const
{
    const auto &groups = benchmarkGroups();
    // Coverage is about what this runner was *asked* to simulate,
    // not what survived trace generation: a group whose member
    // failed still renders (partially) instead of vanishing and
    // silently reshaping every table.
    const std::set<std::string> requested(_names.begin(),
                                          _names.end());
    const auto covered = [&](const std::vector<std::string> &members) {
        for (const auto &member : members) {
            if (requested.find(member) == requested.end())
                return false;
        }
        return !members.empty();
    };

    std::vector<std::pair<std::string, std::vector<std::string>>> out;
    if (covered(groups.avg))
        out.emplace_back("AVG", groups.avg);
    if (covered(groups.oo))
        out.emplace_back("AVG-OO", groups.oo);
    if (covered(groups.c))
        out.emplace_back("AVG-C", groups.c);
    if (covered(groups.avg100))
        out.emplace_back("AVG-100", groups.avg100);
    if (covered(groups.avg200))
        out.emplace_back("AVG-200", groups.avg200);
    if (covered(groups.infrequent))
        out.emplace_back("AVG-infreq", groups.infrequent);
    return out;
}

ResultTable
SuiteRunner::groupTable(const std::string &title, const GridResult &grid,
                        const std::vector<SweepColumn> &columns) const
{
    ResultTable table(title, "group");
    for (const auto &column : columns)
        table.addColumn(column.label);
    for (const auto &[group, members] : coveredGroups()) {
        const unsigned row = table.addRow(group);
        for (unsigned c = 0; c < columns.size(); ++c) {
            // Blank cell when the whole group failed; a partial
            // average is still rendered (ROBUSTNESS.md documents
            // the degraded semantics).
            if (grid.presentCount(columns[c].label, members) == 0)
                continue;
            table.set(row, c, grid.average(columns[c].label, members));
        }
    }
    return table;
}

ResultTable
SuiteRunner::benchmarkTable(const std::string &title,
                            const GridResult &grid,
                            const std::vector<SweepColumn> &columns) const
{
    ResultTable table(title, "benchmark");
    for (const auto &column : columns)
        table.addColumn(column.label);
    for (const auto &[group, members] : coveredGroups()) {
        const unsigned row = table.addRow(group);
        for (unsigned c = 0; c < columns.size(); ++c) {
            if (grid.presentCount(columns[c].label, members) == 0)
                continue;
            table.set(row, c, grid.average(columns[c].label, members));
        }
    }
    for (const auto &name : _names) {
        const unsigned row = table.addRow(name);
        for (unsigned c = 0; c < columns.size(); ++c) {
            if (grid.has(columns[c].label, name))
                table.set(row, c, grid.get(columns[c].label, name));
        }
    }
    return table;
}

} // namespace ibp
