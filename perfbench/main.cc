/**
 * @file
 * The repository benchmark's load generator (README.md here).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --write-expected
 *
 * One process, one client, closed loop: the next job is submitted
 * only after the previous artifact came back. With --trace 0 the run
 * sets the workload up five times (reporting the median set-up
 * time), then runs whole passes of its jobs for about S seconds and
 * prints the end-to-end metrics. With --trace 1 it sets up once and
 * replays the workload layer by layer instead (replay.cc). Either
 * way every job's result tables are compared bit for bit with the
 * committed expected/ tables, and the last line of stdout is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * --write-expected regenerates expected/ from clean in-process runs.
 * Run it from the repository root; it is not part of a measurement.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "perfbench.hh"
#include "sim/result_store.hh"
#include "synth/benchmark_suite.hh"
#include "trace/trace_cache.hh"

#include "suites.hh"

extern char **environ;

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr const char *kExpectedDir = "perfbench/expected";
constexpr const char *kBuildDir = ".bench_build";
constexpr const char *kWorkRoot = ".bench_run";
/** Set-ups per --trace 0 run; set-up time is their median. */
constexpr unsigned kSetups = 5;

std::vector<Workload>
makeWorkloads()
{
    ibp::registerAllBenchExperiments();
    Workload paper{"paper_quick", false, false, true, {}};
    for (const std::string &slug : ibp::experimentSlugs()) {
        const ibp::ExperimentDef *def = ibp::findExperiment(slug);
        if (def != &microThroughputExperiment())
            paper.jobs.push_back(def);
    }
    Workload grid{"grid_warm_store", false, true, false,
                  {&fig02Experiment(), &fig17Experiment(),
                   &fig18Experiment()}};
    Workload served{"served_fig17", true, false, false,
                    {&fig17Experiment()}};
    return {paper, grid, served};
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = makeWorkloads();
    return all;
}

/** Drop every IBP_* knob inherited from the caller, then pin the
 *  ones the benchmark defines. */
void
pinEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        if (entry.rfind("IBP_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const auto &name : names)
        ::unsetenv(name.c_str());
    ::setenv("IBP_EVENTS", kQuickEventScale, 1);
    setThreads(kInProcessThreads);
}

/** Generate and cache every trace @p workload reads, on
 *  kInProcessThreads threads. */
void
generateTraces(const Workload &workload, const ibp::TraceCache &cache)
{
    const auto wanted = tracesOf(workload);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kInProcessThreads; ++t) {
        threads.emplace_back([&]() {
            for (std::size_t i = next++; i < wanted.size(); i = next++) {
                const auto &[name, cond] = wanted[i];
                const ibp::Trace trace =
                    ibp::generateBenchmarkTrace(name, cond);
                if (!cache.store(ibp::benchmarkTraceCacheKey(name, cond),
                                 trace)
                         .ok())
                    failed = true;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    if (failed)
        throw std::runtime_error("cannot store traces in " +
                                 cache.directory());
}

/** Print the program's own timings beside the measured latency.
 *  They are recorded, never used as metrics. */
void
printProgramTimings(const std::vector<JobResult> &jobs)
{
    std::map<std::string, std::vector<const JobResult *>> by_slug;
    for (const auto &job : jobs) {
        if (job.artifact)
            by_slug[job.slug].push_back(&job);
    }
    std::printf("program-reported timings (recorded, not metrics):\n");
    std::printf("  %-16s %4s %10s %10s %10s %12s %14s %12s\n", "job",
                "n", "job_s(min)", "job_s(p50)", "job_s(max)",
                "run_seconds", "branches_per_s", "cell_seconds");
    for (const auto &[slug, list] : by_slug) {
        std::vector<double> job_s, run_s, bps, cell_s;
        for (const JobResult *job : list) {
            job_s.push_back(job->seconds);
            run_s.push_back(job->artifact->metrics.runSeconds());
            bps.push_back(job->artifact->metrics.branchesPerSecond());
            cell_s.push_back(job->artifact->metrics.cellSeconds());
        }
        std::printf("  %-16s %4zu %10.6f %10.6f %10.6f %12.6f %14.4g "
                    "%12.6f\n",
                    slug.c_str(), list.size(),
                    *std::min_element(job_s.begin(), job_s.end()),
                    median(job_s),
                    *std::max_element(job_s.begin(), job_s.end()),
                    median(run_s), median(bps), median(cell_s));
    }
}

/** Flatten the numeric leaves of a metrics block that are counts,
 *  not times (per-cell and failure lists excluded). */
void
flattenCounters(const ibp::Json &json, const std::string &path,
                std::map<std::string, double> &out)
{
    if (json.isNumber()) {
        if (path.find("second") == std::string::npos)
            out[path] = json.asNumber();
    } else if (json.isObject()) {
        for (const auto &[key, value] : json.members()) {
            if (path.empty() && (key == "cells" || key == "failures"))
                continue;
            flattenCounters(value, path.empty() ? key : path + "." + key,
                            out);
        }
    } else if (json.isArray()) {
        for (std::size_t i = 0; i < json.size(); ++i)
            flattenCounters(json.at(i),
                            path + "[" + std::to_string(i) + "]", out);
    }
}

/**
 * Mark every program counter this run recorded as `exact` (equal in
 * every repeat of the same job) or `schedule-dependent` (moved
 * between repeats), so no count claim rests on a counter that moves
 * by itself. Counters never seen twice for one job stay
 * `unverified`.
 */
void
printCounterAudit(const std::vector<JobResult> &jobs)
{
    // counter -> slug -> distinct values
    std::map<std::string, std::map<std::string, std::set<double>>> seen;
    std::map<std::string, unsigned> repeats;
    for (const auto &job : jobs) {
        if (!job.artifact || !job.failure.empty())
            continue;
        ++repeats[job.slug];
        std::map<std::string, double> counters;
        flattenCounters(job.artifact->metrics.toJson(), "", counters);
        for (const auto &[name, value] : counters)
            seen[name][job.slug].insert(value);
    }
    std::printf("program counter audit (repeats of the same job):\n");
    for (const auto &[name, per_slug] : seen) {
        bool repeated = false, moved = false;
        for (const auto &[slug, values] : per_slug) {
            if (repeats[slug] >= 2) {
                repeated = true;
                moved |= values.size() > 1;
            }
        }
        std::printf("  %-44s %s\n", name.c_str(),
                    !repeated ? "unverified"
                    : moved   ? "schedule-dependent"
                              : "exact");
    }
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/** The --trace 0 run: set up kSetups times, then timed passes. */
std::vector<Metric>
runUntraced(Context &context)
{
    const Workload &workload = *context.workload;
    std::vector<double> setups;
    for (unsigned i = 0; i < kSetups; ++i) {
        if (i > 0) {
            context.daemon.stop();
            fs::remove_all(context.workDir + "/setup" +
                           std::to_string(i - 1));
        }
        setups.push_back(setUp(context, i));
    }
    const std::size_t setup_jobs = context.jobs.size();

    std::mt19937_64 rng(context.seed);
    if (workload.served)
        context.daemon.resetPeakRss();
    else
        resetSelfPeakRss();

    std::vector<double> pass_walls, job_s;
    double cells = 0.0, events = 0.0;
    const auto start = Clock::now();
    do {
        const auto order = shuffled(workload, rng);
        if (!workload.warmStore && !workload.served)
            context.emptyStore();
        double pass = 0.0;
        for (const ibp::ExperimentDef *def : order) {
            // Served jobs run against an empty daemon store.
            if (workload.served)
                context.emptyStore();
            const JobResult &job = context.runJob(*def);
            pass += job.seconds;
            job_s.push_back(job.seconds);
            const Expected &expected = context.expected.at(def->slug);
            cells += static_cast<double>(expected.cells);
            if (!workload.warmStore)
                events += static_cast<double>(expected.branches);
        }
        pass_walls.push_back(pass);
    } while (secondsSince(start) * (1.0 + 1.0 / pass_walls.size()) <
             context.seconds);

    const double peak = workload.served ? context.daemon.peakRssMb()
                                        : selfPeakRssMb();
    double walls = 0.0;
    for (const double wall : pass_walls)
        walls += wall;

    std::printf("workload %s: %zu passes, %zu timed jobs, %zu set-up "
                "jobs\n  pass walls (s):",
                workload.name.c_str(), pass_walls.size(), job_s.size(),
                setup_jobs);
    for (std::size_t i = 0; i < pass_walls.size() && i < 8; ++i)
        std::printf(" %.4f", pass_walls[i]);
    std::printf("%s\n  set-ups (s):", pass_walls.size() > 8 ? " ..." : "");
    for (const double setup : setups)
        std::printf(" %.4f", setup);
    std::printf("\n");
    std::vector<Metric> metrics = {
        {"setup_s", median(setups), "s"},
        {"wall_s", median(pass_walls), "s"},
        {"job_s.p50", quantile(job_s, 0.5), "s"},
        {"job_s.p90", quantile(job_s, 0.9), "s"},
        {"cells_per_s", cells / walls, "1/s"},
        {"peak_rss_mb", peak, "MiB"},
    };
    for (const auto &metric : metrics)
        std::printf("  %-22s %.6g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    // Not a metric: with a fixed job mix it is cells_per_s times a
    // constant, and a warm-store pass simulates nothing.
    std::printf("  sim_branches_per_s     %.6g 1/s (fresh (branch x "
                "predictor) events; not a metric)\n",
                events / walls);
    const std::vector<JobResult> timed(context.jobs.begin() + setup_jobs,
                                       context.jobs.end());
    printProgramTimings(timed);
    printCounterAudit(timed);
    return metrics;
}

int
writeExpectedTables()
{
    const std::string dir = std::string(kWorkRoot) + "/expected";
    fs::remove_all(dir);
    ibp::TraceCache::configureGlobal(dir + "/trace-cache");
    ibp::ResultStore::configureGlobal("");
    // Nothing to compare against yet: only failed cells disqualify.
    const Expected none;
    int status = 0;
    for (const ibp::ExperimentDef *def : workloads().front().jobs) {
        const JobResult job = runInProcess(*def, none);
        if (!job.artifact || job.artifact->metrics.failureCount() != 0) {
            std::fprintf(stderr, "perfbench: %s failed\n",
                         def->slug.c_str());
            status = 1;
            continue;
        }
        writeExpected(kExpectedDir, *job.artifact);
        std::printf("wrote %s/%s.json (%.3f s)\n", kExpectedDir,
                    def->slug.c_str(), job.seconds);
    }
    fs::remove_all(dir);
    return status;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "       perfbench --write-expected\n"
                 "workloads: paper_quick grid_warm_store "
                 "served_fig17\n");
    return 2;
}

} // namespace

std::vector<const ibp::ExperimentDef *>
shuffled(const Workload &workload, std::mt19937_64 &rng)
{
    auto order = workload.jobs;
    // Fisher-Yates with the generator's raw output, so the order
    // depends on the seed alone, not on the standard library.
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

std::vector<std::pair<std::string, bool>>
tracesOf(const Workload &workload)
{
    std::vector<std::pair<std::string, bool>> traces;
    for (const auto &profile : ibp::benchmarkSuite())
        traces.emplace_back(profile.name, false);
    if (workload.conditionals) {
        for (const auto &name : ibp::benchmarkGroups().avg)
            traces.emplace_back(name, true);
    }
    return traces;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &workload : workloads()) {
        if (workload.name == name)
            return &workload;
    }
    return nullptr;
}

const JobResult &
Context::runJob(const ibp::ExperimentDef &def)
{
    const Expected &want = expected.at(def.slug);
    if (workload->served) {
        // The client must match the lanes' configuration exactly.
        setThreads(1);
        jobs.push_back(runServed(def, want, daemon.socket()));
        setThreads(kInProcessThreads);
    } else {
        jobs.push_back(runInProcess(def, want));
    }
    if (!jobs.back().failure.empty()) {
        std::printf("FAILED %s: %s\n", def.slug.c_str(),
                    jobs.back().failure.c_str());
    }
    return jobs.back();
}

void
Context::emptyStore() const
{
    emptyDirectory(workload->served ? daemon.resultStore()
                                    : resultStore);
}

double
setUp(Context &context, unsigned index)
{
    const auto start = Clock::now();
    const std::string dir =
        context.workDir + "/setup" + std::to_string(index);
    context.traceCache = dir + "/trace-cache";
    context.resultStore = dir + "/result-store";
    fs::create_directories(context.resultStore);
    const ibp::TraceCache cache(context.traceCache);
    generateTraces(*context.workload, cache);
    ibp::TraceCache::configureGlobal(context.traceCache);
    ibp::ResultStore::configureGlobal(context.resultStore);

    if (context.workload->served) {
        context.daemon.start(context.ibpdBinary, dir + "/ibpd",
                             context.traceCache);
    } else if (context.workload->warmStore) {
        for (const ibp::ExperimentDef *def : context.workload->jobs)
            context.runJob(*def);
    }
    return secondsSince(start);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload_name;
    std::string seed_text, seconds_text, trace_text;
    bool write_expected = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](std::string *out) {
            if (i + 1 >= argc)
                return false;
            *out = argv[++i];
            return true;
        };
        bool ok = true;
        if (arg == "--workload")
            ok = value(&workload_name);
        else if (arg == "--seed")
            ok = value(&seed_text);
        else if (arg == "--seconds")
            ok = value(&seconds_text);
        else if (arg == "--trace")
            ok = value(&trace_text);
        else if (arg == "--write-expected")
            write_expected = true;
        else
            ok = false;
        if (!ok)
            return usage();
    }
    pinEnvironment();
    if (write_expected)
        return writeExpectedTables();

    Context context;
    context.workload = findWorkload(workload_name);
    char *end = nullptr;
    context.seed = std::strtoull(seed_text.c_str(), &end, 10);
    const bool seed_ok = !seed_text.empty() && *end == '\0';
    context.seconds = std::strtod(seconds_text.c_str(), &end);
    const bool seconds_ok = !seconds_text.empty() && *end == '\0' &&
                            context.seconds > 0.0;
    if (!context.workload || !seed_ok || !seconds_ok ||
        (trace_text != "0" && trace_text != "1"))
        return usage();
    const bool traced = trace_text == "1";

    context.workDir = std::string(kWorkRoot) + "/run-" +
                      std::to_string(::getpid());
    context.ibpdBinary = std::string(kBuildDir) + "/ibpd";
    int status = 0;
    try {
        context.expected = loadExpected(kExpectedDir);
        for (const ibp::ExperimentDef *def : context.workload->jobs) {
            if (!context.expected.count(def->slug))
                throw std::runtime_error("no expected tables for " +
                                         def->slug);
        }
        fs::remove_all(context.workDir);
        fs::create_directories(context.workDir);
        const std::vector<Metric> metrics =
            traced ? runTraced(context) : runUntraced(context);
        context.daemon.stop();

        std::size_t failed = 0;
        for (const auto &job : context.jobs)
            failed += job.failure.empty() ? 0 : 1;
        const std::size_t attempted = context.jobs.size();
        std::printf("failed_ops_ratio %zu / %zu = %.6g (failed cells, "
                    "mismatched tables and fallen-back or refused "
                    "served jobs, per attempted job)\n",
                    failed, attempted,
                    attempted ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0);
        printResult(failed == 0, attempted, failed, metrics);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        status = 1;
    }
    context.daemon.stop();
    std::error_code ec;
    fs::remove_all(context.workDir, ec);
    return status;
}
