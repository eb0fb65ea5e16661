/**
 * @file
 * The traced run: replay one pass of a workload layer by layer.
 *
 * The run first makes one ordinary (untraced) pass, so it knows each
 * job's wall time and artifact. It then replays the same jobs, in
 * the same order, through the public entry point of each layer, with
 * a span of its own around every call:
 *
 *   synth   generateBenchmarkTrace
 *   trace   TraceCache::store / TraceCache::load
 *   sim     SuiteRunner construction; SuiteRunner::run with the
 *           result store disarmed (the engine), then armed against
 *           an empty and a warm scratch store (engine + store +
 *           runner overhead); unrebuildable jobs as one body call
 *   store   ResultStore::cellKey / load / store / tryClaim
 *   robust  CheckpointJournal::append
 *   report  RunArtifact::toJson
 *   serve   writeFrame / readFrame over a socketpair, and the wall
 *           time of a served warm-store fig17 job
 *
 * The grids of the store-keyed figures (fig02, fig17, fig18) are
 * rebuilt with the public specColumn / btbColumn / paperHybrid /
 * paperTwoLevel helpers. The other paper experiments build their
 * grids inside their bodies, so their finest public boundary is the
 * body call itself, booked to the engine.
 *
 * The ledger: per job, the spans that mirror work the workload's job
 * really does are summed as layer self times; unattributed_s is the
 * untraced job walls minus that sum. Per-cell store and journal
 * operations are replayed one after another, but the system issues
 * them from kInProcessThreads workers (or kServedLanes lanes) at
 * once, so the ledger books them at 1/kInProcessThreads of their
 * sequential sum; the reported store.* and robust.* metrics are the
 * sequential sums. Spans that mirror no work of the workload (for
 * example the cell claims of an in-process job) are still measured
 * and reported, but stay out of the ledger.
 */

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "core/factory.hh"
#include "perfbench.hh"
#include "robust/checkpoint.hh"
#include "serve/protocol.hh"
#include "sim/result_store.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "synth/benchmark_suite.hh"
#include "trace/trace_cache.hh"

#include "suites.hh"

namespace perfbench {

namespace {

/** Workers that issue per-cell store operations concurrently. */
constexpr double kWorkers = kInProcessThreads;
static_assert(kInProcessThreads == kServedLanes,
              "the ledger books per-cell operations at 1/kWorkers");

/** Warm served fig17 jobs timed for serve.roundtrip_s. */
constexpr unsigned kRoundtrips = 3;

/** Seconds per span name, summed over the replayed pass. */
class Spans
{
  public:
    template <typename F>
    auto time(const std::string &name, F &&body)
    {
        const auto start = Clock::now();
        auto result = body();
        _seconds[name] += secondsSince(start);
        return result;
    }

    double &operator[](const std::string &name)
    {
        return _seconds[name];
    }

  private:
    std::map<std::string, double> _seconds;
};

/** One SuiteRunner::run call of a rebuilt job. `lane` grids hold
 *  two-level and confidence-hybrid columns, which the lane engine
 *  batches; the others hold BTB columns, which take the generic
 *  record-at-a-time path. */
struct Grid
{
    std::vector<ibp::SweepColumn> columns;
    bool lane = true;
};

struct Plan
{
    bool fullSuite = false;
    std::vector<Grid> grids;
};

/** The quick-scale grids of the store-keyed figures, rebuilt the
 *  way bench/fig02_btb.cc, fig17_hybrid_grid.cc and
 *  fig18_best_predictors.cc build them. */
std::optional<Plan>
rebuild(const std::string &slug)
{
    using ibp::TableSpec;
    Plan plan;
    if (slug == "fig02") {
        plan.fullSuite = true;
        plan.grids.push_back(
            {{ibp::btbColumn("BTB", TableSpec::unconstrained(), false),
              ibp::btbColumn("BTB-2bc", TableSpec::unconstrained(),
                             true)},
             false});
    } else if (slug == "fig17") {
        const unsigned comp = 2048;
        for (unsigned p1 = 0; p1 <= 6; ++p1) {
            Grid grid;
            for (unsigned p2 = 0; p2 <= 6; ++p2) {
                const std::string label = std::to_string(p2);
                grid.columns.push_back(
                    p1 == p2
                        ? ibp::specColumn(
                              label,
                              ibp::paperTwoLevel(
                                  p1, TableSpec::setAssoc(2 * comp, 4)))
                        : ibp::specColumn(
                              label, ibp::paperHybrid(
                                         p1, p2,
                                         TableSpec::setAssoc(comp, 4))));
            }
            plan.grids.push_back(std::move(grid));
        }
    } else if (slug == "fig18") {
        for (const std::uint64_t size : {256u, 2048u, 16384u}) {
            plan.grids.push_back(
                {{ibp::btbColumn("btb", TableSpec::fullyAssoc(size),
                                 true)},
                 false});
            for (const TableSpec &spec :
                 {TableSpec::tagless(size), TableSpec::setAssoc(size, 2),
                  TableSpec::setAssoc(size, 4),
                  TableSpec::fullyAssoc(size)}) {
                Grid grid;
                for (const unsigned p : {0u, 2u, 4u}) {
                    grid.columns.push_back(ibp::specColumn(
                        "p=" + std::to_string(p),
                        ibp::paperTwoLevel(p, spec)));
                }
                plan.grids.push_back(std::move(grid));
            }
        }
    } else {
        return std::nullopt;
    }
    return plan;
}

/** Layer measurements of one replayed pass. */
struct Replay
{
    Spans spans;
    /** The ledger: attributed self time per layer metric. */
    std::map<std::string, double> self;
    double laneEvents = 0.0, laneSeconds = 0.0;
    double genericEvents = 0.0, genericSeconds = 0.0;
    double artifactBytes = 0.0;
    std::uint64_t cells = 0;
};

ibp::StoredResult
storedResult(const std::string &benchmark, const std::string &label,
             std::uint64_t branches, double missPercent)
{
    ibp::StoredResult result;
    result.benchmark = benchmark;
    result.predictor = label;
    result.branches = branches;
    result.misses = static_cast<std::uint64_t>(
        missPercent * static_cast<double>(branches) / 100.0 + 0.5);
    result.missPercent = missPercent;
    return result;
}

/**
 * Replay one store-keyed job. @p cold: the workload's job runs
 * against an empty store (probe, simulate, put); otherwise against a
 * warm one (load). @p served: the job is a sharded ibpd job, whose
 * merge pass, encode and frame are covered by serve.roundtrip_s.
 * @p jobStore, when not empty, is the store the real job filled:
 * every rebuilt cell must be in it, which proves the rebuilt grid
 * is the job's grid.
 */
void
replayKeyed(Context &context, const Plan &plan, bool cold, bool served,
            const std::string &jobStore, Replay &replay,
            ibp::CheckpointJournal &journal)
{
    Spans &spans = replay.spans;
    const std::string scratch = context.workDir + "/replay-store";
    const std::string ops = context.workDir + "/replay-ops";

    std::vector<std::string> names = ibp::benchmarkGroups().avg;
    if (plan.fullSuite) {
        names.clear();
        for (const auto &profile : ibp::benchmarkSuite())
            names.push_back(profile.name);
    }
    for (const auto &name : names) {
        const auto loaded = spans.time("trace.cache_load_s", [&]() {
            return ibp::TraceCache::global()->load(
                ibp::benchmarkTraceCacheKey(name, false));
        });
        if (!loaded.ok())
            throw std::runtime_error("replay: trace " + name +
                                     " is not cached");
    }

    const auto construct_start = Clock::now();
    std::optional<ibp::SuiteRunner> runner;
    runner.emplace(names, false);
    runner->traceSourceStats(); // blocks until the traces are in
    const double construct = secondsSince(construct_start);
    spans["sim.runner_construct_s"] += construct;

    std::map<std::string, std::uint64_t> branches;
    double indirect = 0.0;
    for (const auto &name : names) {
        branches[name] = runner->trace(name).countPredictedIndirect();
        indirect += static_cast<double>(branches[name]);
    }

    // The engine: SuiteRunner::run with the store disarmed.
    ibp::ResultStore::configureGlobal("");
    std::vector<ibp::GridResult> results;
    double engine = 0.0;
    for (const Grid &grid : plan.grids) {
        const auto start = Clock::now();
        results.push_back(runner->run(grid.columns));
        const double seconds = secondsSince(start);
        engine += seconds;
        const double events =
            indirect * static_cast<double>(grid.columns.size());
        (grid.lane ? replay.laneEvents : replay.genericEvents) += events;
        (grid.lane ? replay.laneSeconds : replay.genericSeconds) +=
            seconds;
    }
    spans["sim.engine_s"] += engine;

    // The same grids through the armed runner: first against an
    // empty store (simulate + put), then against the store it filled.
    emptyDirectory(scratch);
    ibp::ResultStore::configureGlobal(scratch);
    double run_cold = 0.0, run_warm = 0.0;
    for (const Grid &grid : plan.grids) {
        const auto start = Clock::now();
        runner->run(grid.columns);
        run_cold += secondsSince(start);
    }
    for (const Grid &grid : plan.grids) {
        const auto start = Clock::now();
        runner->run(grid.columns);
        run_warm += secondsSince(start);
    }
    ibp::ResultStore::configureGlobal(context.resultStore);

    // Per-cell store and journal operations, one after another.
    emptyDirectory(ops);
    const ibp::ResultStore store(ops);
    const ibp::ResultStore job_store(jobStore);
    double probe = 0.0, put = 0.0, load = 0.0, claim = 0.0, append = 0.0;
    unsigned grid_id = 0;
    for (std::size_t g = 0; g < plan.grids.size(); ++g) {
        for (const auto &column : plan.grids[g].columns) {
            for (const auto &name : names) {
                const double rate = results[g].get(column.label, name);
                auto start = Clock::now();
                const std::string key = ibp::ResultStore::cellKey(
                    ibp::benchmarkTraceCacheKey(name, false),
                    column.specHash);
                const bool missed = store.load(key).status ==
                                    ibp::ResultStore::LoadStatus::Miss;
                probe += secondsSince(start);

                start = Clock::now();
                const bool stored =
                    store
                        .store(key, storedResult(name, column.label,
                                                 branches[name], rate))
                        .ok();
                put += secondsSince(start);

                start = Clock::now();
                const bool hit = store.load(key).status ==
                                 ibp::ResultStore::LoadStatus::Hit;
                load += secondsSince(start);

                start = Clock::now();
                {
                    ibp::CellClaim held = store.tryClaim(key);
                    held.release();
                }
                claim += secondsSince(start);

                start = Clock::now();
                const bool appended =
                    journal.append({grid_id, column.label, name, rate})
                        .ok();
                append += secondsSince(start);

                if (!missed || !stored || !hit || !appended)
                    throw std::runtime_error(
                        "replay: store or journal operation failed");
                if (!jobStore.empty() && !job_store.contains(key))
                    throw std::runtime_error(
                        "replay: rebuilt cell " + column.label + " x " +
                        name + " is not in the job's store");
                ++replay.cells;
            }
        }
        ++grid_id;
    }
    spans["store.put_s"] += put;
    spans["store.load_hit_s"] += load;
    spans["store.claim_s"] += claim;
    spans["robust.journal_append_s"] += append;

    if (served) {
        // Shards: simulate, claim, probe, put and journal each cell;
        // the merge pass is inside serve.roundtrip_s.
        replay.self["sim.engine_s"] += engine;
        replay.self["store.claim_s"] += claim / kWorkers;
        replay.self["store.put_s"] += (probe + put) / kWorkers;
        replay.self["robust.journal_append_s"] += append / kWorkers;
        spans["sim.runner_overhead_s"] +=
            run_warm - load / kWorkers;
    } else if (cold) {
        replay.self["sim.runner_construct_s"] += construct;
        replay.self["sim.engine_s"] += engine;
        replay.self["store.put_s"] += (probe + put) / kWorkers;
        const double overhead =
            run_cold - engine - (probe + put) / kWorkers;
        replay.self["sim.runner_overhead_s"] += overhead;
        spans["sim.runner_overhead_s"] += overhead;
    } else {
        replay.self["sim.runner_construct_s"] += construct;
        replay.self["store.load_hit_s"] += load / kWorkers;
        const double overhead = run_warm - load / kWorkers;
        replay.self["sim.runner_overhead_s"] += overhead;
        spans["sim.runner_overhead_s"] += overhead;
    }
}

/** Replay a job whose grid the public helpers cannot rebuild: its
 *  body, with the store disarmed, is one engine span. */
void
replayBody(const ibp::ExperimentDef &def, Replay &replay)
{
    ibp::ExperimentOptions options;
    options.quick = true;
    options.echo = false;
    ibp::ResultStore::configureGlobal("");
    ibp::ExperimentContext body_context(def.slug, def.title, options);
    const auto start = Clock::now();
    def.body(body_context);
    const double seconds = secondsSince(start);
    replay.spans["sim.engine_s"] += seconds;
    replay.self["sim.engine_s"] += seconds;
}

/** Send @p json as one frame through a socketpair and read it back. */
double
frameRoundtrip(const ibp::Json &json)
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error("replay: socketpair failed");
    const auto start = Clock::now();
    bool written = false;
    std::thread writer([&]() {
        written = ibp::writeFrame(fds[0], json).ok();
    });
    const auto read = ibp::readFrame(fds[1]);
    if (!read.ok())
        ::shutdown(fds[1], SHUT_RDWR); // unblock the writer
    writer.join();
    const double seconds = secondsSince(start);
    ::close(fds[0]);
    ::close(fds[1]);
    if (!written || !read.ok())
        throw std::runtime_error("replay: frame round trip failed");
    return seconds;
}

/** Submit @p def to the context's daemon and record the job. */
const JobResult &
servedJob(Context &context, const ibp::ExperimentDef &def)
{
    setThreads(1);
    context.jobs.push_back(runServed(def, context.expected.at(def.slug),
                                     context.daemon.socket()));
    setThreads(kInProcessThreads);
    const JobResult &job = context.jobs.back();
    if (!job.failure.empty())
        std::printf("FAILED served %s: %s\n", def.slug.c_str(),
                    job.failure.c_str());
    return job;
}

} // namespace

std::vector<Metric>
runTraced(Context &context)
{
    const Workload &workload = *context.workload;
    setUp(context, 0);
    std::mt19937_64 rng(context.seed);
    const auto order = shuffled(workload, rng);

    // 1. One untraced pass: job walls and artifacts.
    if (!workload.warmStore)
        context.emptyStore();
    std::vector<std::shared_ptr<ibp::RunArtifact>> artifacts;
    double untraced_wall = 0.0, hits = 0.0, probes = 0.0;
    for (const ibp::ExperimentDef *def : order) {
        const JobResult &job = context.runJob(*def);
        artifacts.push_back(job.artifact);
        untraced_wall += job.seconds;
        if (job.artifact && job.artifact->metrics.hasResultStore()) {
            const auto stats = job.artifact->metrics.resultStore();
            hits += stats.hits;
            probes += stats.hits + stats.misses;
        }
    }

    // 2. The traced replay of the same pass.
    Replay replay;
    auto journal = ibp::CheckpointJournal::open(
        context.workDir + "/replay.ckpt",
        ibp::CheckpointMeta{"replay", "unknown", 0.25, true});
    if (!journal.ok())
        throw std::runtime_error("replay: cannot open a journal");
    const std::string job_store = workload.served
                                      ? context.daemon.resultStore()
                                      : context.resultStore;
    const auto replay_start = Clock::now();
    for (std::size_t i = 0; i < order.size(); ++i) {
        const ibp::ExperimentDef &def = *order[i];
        if (const auto plan = rebuild(def.slug)) {
            replayKeyed(context, *plan, !workload.warmStore,
                        workload.served, job_store, replay,
                        *journal.value());
        } else {
            replayBody(def, replay);
        }
        if (!artifacts[i])
            continue;
        const ibp::Json json = replay.spans.time(
            "report.artifact_encode_s",
            [&]() { return artifacts[i]->toJson(); });
        const std::string bytes = replay.spans.time(
            "report.artifact_encode_s", [&]() { return json.dump(); });
        replay.artifactBytes += static_cast<double>(bytes.size());
        ibp::Json frame = ibp::Json::object();
        frame.set("type", "artifact");
        frame.set("artifact", json);
        replay.spans["serve.frame_s"] += frameRoundtrip(frame);
    }
    const double replay_wall = secondsSince(replay_start);
    ibp::ResultStore::configureGlobal(context.resultStore);
    // An in-process job never encodes its artifact (nothing writes
    // it), and a served job's encode and frame are inside
    // serve.roundtrip_s, so neither is booked to the ledger.

    // A workload without BTB grids (served_fig17) reads the generic
    // path on fig02's grid, outside the ledger.
    if (replay.genericSeconds == 0.0) {
        Replay probe;
        replayKeyed(context, *rebuild("fig02"), true, false, "", probe,
                    *journal.value());
        replay.genericEvents = probe.genericEvents;
        replay.genericSeconds = probe.genericSeconds;
    }

    // 3. Set-up layers: generate and cache the workload's traces one
    //    by one.
    double generate = 0.0, store = 0.0, records = 0.0;
    {
        const ibp::TraceCache cache(context.workDir + "/replay-traces");
        for (const auto &[name, cond] : tracesOf(workload)) {
            auto start = Clock::now();
            const ibp::Trace trace = ibp::generateBenchmarkTrace(name, cond);
            generate += secondsSince(start);
            records += static_cast<double>(trace.size());
            start = Clock::now();
            if (!cache.store(ibp::benchmarkTraceCacheKey(name, cond), trace)
                     .ok())
                throw std::runtime_error("replay: cannot cache traces");
            store += secondsSince(start);
        }
    }

    // 4. The fixed cost of a served job: warm-store fig17 through a
    //    live ibpd (started here for the in-process workloads).
    const ibp::ExperimentDef &fig17 = fig17Experiment();
    if (!workload.served) {
        context.daemon.start(context.ibpdBinary,
                             context.workDir + "/probe-ibpd",
                             context.traceCache);
        servedJob(context, fig17); // fills the daemon's store
    }
    std::vector<double> roundtrips;
    for (unsigned i = 0; i < kRoundtrips; ++i)
        roundtrips.push_back(servedJob(context, fig17).seconds);
    const double roundtrip = median(roundtrips);
    if (workload.served)
        replay.self["serve.roundtrip_s"] += roundtrip;
    context.daemon.stop();
    unsigned fallbacks = 0;
    for (const auto &job : context.jobs)
        fallbacks += job.fellBack ? 1 : 0;

    double attributed = 0.0;
    for (const auto &[name, seconds] : replay.self)
        attributed += seconds;
    std::printf("traced replay of %s: %zu jobs, %llu replayed store "
                "cells, untraced pass %.3f s, traced pass %.3f s\n",
                workload.name.c_str(), order.size(),
                static_cast<unsigned long long>(replay.cells),
                untraced_wall, replay_wall);
    std::printf("ledger (self seconds per pass):\n");
    for (const auto &[name, seconds] : replay.self)
        std::printf("  %-26s %.6f\n", name.c_str(), seconds);
    std::printf("  %-26s %.6f\n", "unattributed_s",
                untraced_wall - attributed);

    const auto rate = [](double events, double seconds) {
        return seconds > 0.0 ? events / seconds : 0.0;
    };
    Spans &spans = replay.spans;
    std::vector<Metric> metrics = {
        {"synth.generate_s", generate, "s"},
        {"synth.records_per_s", rate(records, generate), "1/s"},
        {"trace.cache_store_s", store, "s"},
        {"trace.cache_load_s", spans["trace.cache_load_s"], "s"},
        {"sim.engine_s", spans["sim.engine_s"], "s"},
        {"sim.lane_branches_per_s",
         rate(replay.laneEvents, replay.laneSeconds), "1/s"},
        {"sim.generic_branches_per_s",
         rate(replay.genericEvents, replay.genericSeconds), "1/s"},
        {"sim.runner_construct_s", spans["sim.runner_construct_s"], "s"},
        {"sim.runner_overhead_s", spans["sim.runner_overhead_s"], "s"},
        {"store.load_hit_s", spans["store.load_hit_s"], "s"},
        {"store.hit_ratio", probes > 0.0 ? hits / probes : 0.0, "ratio"},
        {"store.put_s", spans["store.put_s"], "s"},
        {"store.claim_s", spans["store.claim_s"], "s"},
        {"robust.journal_append_s", spans["robust.journal_append_s"],
         "s"},
        {"report.artifact_encode_s", spans["report.artifact_encode_s"],
         "s"},
        {"report.artifact_bytes", replay.artifactBytes, "bytes"},
        {"serve.frame_s", spans["serve.frame_s"], "s"},
        {"serve.roundtrip_s", roundtrip, "s"},
        {"serve.fallbacks", static_cast<double>(fallbacks), "count"},
        {"unattributed_s", untraced_wall - attributed, "s"},
        {"trace_overhead_s", replay_wall - untraced_wall, "s"},
    };
    for (const auto &metric : metrics)
        std::printf("  %-28s %.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    return metrics;
}

} // namespace perfbench
