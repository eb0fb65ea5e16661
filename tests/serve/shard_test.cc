/**
 * @file
 * Tests of the grid sharder and the cell-claim layer (src/serve,
 * sim/result_store): a sharded --lanes=4 run is bit-identical to
 * --lanes=1 and to the in-process runner, a SIGKILLed lane mid-shard
 * re-queues only that shard's unfinished cells (finished cells are
 * never re-simulated - counted via a factory-side simulation log),
 * two concurrent overlapping in-process requests simulate their
 * intersection exactly once (asserted through the result-store claim
 * counters), and a sharded job counts as warm only when neither its
 * shards nor its merge pass generated a trace.
 *
 * Lane processes are fork()ed children: anything the experiment
 * bodies must observe from the test (gates, the simulation log path)
 * goes through globals set BEFORE the server forks its pool, and
 * through the filesystem afterwards. Fork-based tests are skipped
 * under TSan; the overlap test is thread-only and runs everywhere.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "core/table_spec.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_cache.hh"

#if defined(__SANITIZE_THREAD__)
#define IBP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IBP_TSAN 1
#endif
#endif
#ifndef IBP_TSAN
#define IBP_TSAN 0
#endif

namespace ibp {
namespace {

/** Gate file the chaos body polls; set before the server forks. */
std::string g_shard_gate;

/** Append-one-byte log written by the counted column's factory on
 *  every SIMULATION (store hits and journal restores never construct
 *  a predictor, so the file size counts exactly the simulated cells
 *  across the test process and every lane). Empty = disabled. */
std::string g_shard_sim_log;

void
logSimulatedCell()
{
    if (g_shard_sim_log.empty())
        return;
    const int fd = ::open(g_shard_sim_log.c_str(),
                          O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        return;
    [[maybe_unused]] const ssize_t n = ::write(fd, "x", 1);
    ::close(fd);
}

std::size_t
simulatedCellCount()
{
    std::error_code ec;
    const auto size =
        std::filesystem::file_size(g_shard_sim_log, ec);
    return ec ? 0 : static_cast<std::size_t>(size);
}

/** Park until the gate file exists or the run is drained. */
void
waitForGateFile(const std::string &path, RunSession &session)
{
    while (!std::filesystem::exists(path)) {
        if (session.abort != nullptr && session.abort->load())
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

/** One keyed column whose factory logs every construction. The
 *  wrapper builds exactly what btbColumn's hash describes, so the
 *  store-key honesty contract holds. @p entries varies the config:
 *  two grids over the SAME config would share store keys and the
 *  second would be all hits. */
std::vector<SweepColumn>
countedShardColumns(unsigned entries)
{
    SweepColumn keyed =
        btbColumn("btb", TableSpec::setAssoc(entries, 4), true);
    const PredictorFactory inner = keyed.make;
    keyed.make = [inner] {
        logSimulatedCell();
        return inner();
    };
    return {keyed};
}

/** A pure store-keyed sweep: the shardable differential target. */
const ExperimentDef &
shardDiffExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_shard_diff", "shard test: differential",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc", "perl"}, false,
                                context.config());
             const std::vector<SweepColumn> columns = {
                 btbColumn("btb256", TableSpec::setAssoc(256, 4),
                           true),
                 btbColumn("btb512", TableSpec::setAssoc(512, 4),
                           true),
             };
             const GridResult grid =
                 runner.run({columns}, context.session()).front();
             context.emit(runner.benchmarkTable("shard diff grid",
                                                grid, columns));
             context.note("shard differential note");
         },
         /*shardable=*/true});
    return def;
}

/** Counted keyed grid, file gate, second counted grid: every shard
 *  parks at the gate after persisting its first-grid partition, so
 *  the test can SIGKILL a lane at a known cell-quiescent point. */
const ExperimentDef &
gatedShardExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_shard_chaos", "shard test: gated mid-shard kill",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto before = countedShardColumns(256);
             const auto after = countedShardColumns(512);
             const GridResult first =
                 runner.run({before}, context.session()).front();
             waitForGateFile(g_shard_gate, context.session());
             const GridResult second =
                 runner.run({after}, context.session()).front();
             context.emit(runner.benchmarkTable("shard gate grid 1",
                                                first, before));
             context.emit(runner.benchmarkTable("shard gate grid 2",
                                                second, after));
         },
         /*shardable=*/true});
    return def;
}

class ShardServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        char dir_template[] = "/tmp/ibpshardXXXXXX";
        ASSERT_NE(::mkdtemp(dir_template), nullptr);
        _dir = dir_template;
        _socket = _dir + "/s.sock";
        _state = _dir + "/state";
        g_shard_gate = _dir + "/gate";
        g_shard_sim_log.clear();
    }

    void
    TearDown() override
    {
        unsetenv("IBP_EVENTS");
        // The store and the trace cache are process-global; leaving
        // them armed would warm every later test in this binary.
        ResultStore::configureGlobal("");
        TraceCache::configureGlobal("");
        g_shard_sim_log.clear();
        std::error_code ec;
        std::filesystem::remove_all(_dir, ec);
    }

    std::unique_ptr<SweepServer>
    makeServer(unsigned lanes)
    {
        ServerConfig config;
        config.socketPath = _socket;
        config.stateDir = _state;
        config.retryAfterSeconds = 0.01;
        config.echo = false;
        config.lanes = lanes;
        auto server = std::make_unique<SweepServer>(config);
        const auto started = server->start();
        EXPECT_TRUE(started.ok())
            << (started.ok() ? "" : started.error().describe());
        return server;
    }

    ExperimentOptions
    quietOptions() const
    {
        ExperimentOptions options;
        options.echo = false;
        return options;
    }

    ClientOptions
    clientOptions() const
    {
        ClientOptions client;
        client.socketPath = _socket;
        client.backoffSeconds = 0.005;
        return client;
    }

    static void
    expectBitIdentical(const RunArtifact &served,
                       const RunArtifact &oracle)
    {
        ASSERT_EQ(served.tables.size(), oracle.tables.size());
        for (std::size_t i = 0; i < oracle.tables.size(); ++i)
            EXPECT_EQ(tableToJson(served.tables[i]).dump(),
                      tableToJson(oracle.tables[i]).dump());
        EXPECT_EQ(served.notes, oracle.notes);
        EXPECT_EQ(served.manifest.eventScale,
                  oracle.manifest.eventScale);
    }

    /** Read frames until the terminal one; progress is skipped. */
    static Json
    readTerminalFrame(int fd)
    {
        for (;;) {
            auto frame = readFrame(fd, 120.0);
            EXPECT_TRUE(frame.ok())
                << (frame.ok() ? "" : frame.error().describe());
            if (!frame.ok())
                return Json::object();
            const std::string type =
                frame.value().stringOr("type", "");
            if (type == "accepted" || type == "progress")
                continue;
            return frame.value();
        }
    }

    /** Poll @p predicate for up to ~20 s. */
    static bool
    eventually(const std::function<bool()> &predicate)
    {
        for (int i = 0; i < 4000; ++i) {
            if (predicate())
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        return predicate();
    }

    std::string _dir;
    std::string _socket;
    std::string _state;
};

TEST_F(ShardServeTest, ShardedFourLanesBitIdenticalToOneAndInProcess)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = shardDiffExperiment();

    // In-process oracle with NO store: pure simulation.
    ResultStore::configureGlobal("");
    const ExperimentRunResult local =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(local.exitCode, 0);
    ASSERT_NE(local.artifact, nullptr);

    // --lanes=1: whole-job path (sharding needs >= 2 lanes), cell
    // claims armed, cold store.
    ResultStore::configureGlobal(_state + "/store-one");
    auto one = makeServer(1);
    ServedOutcome outcome_one;
    const ExperimentRunResult served_one = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome_one);
    ASSERT_TRUE(outcome_one.served) << outcome_one.fallbackReason;
    ASSERT_EQ(served_one.exitCode, 0);
    ASSERT_NE(served_one.artifact, nullptr);
    expectBitIdentical(*served_one.artifact, *local.artifact);
    one->requestDrain();
    one->waitStopped();
    EXPECT_EQ(one->stats().jobsSharded, 0u);
    EXPECT_EQ(one->stats().jobsCompleted, 1u);
    ASSERT_TRUE(served_one.artifact->metrics.hasServe());
    EXPECT_EQ(served_one.artifact->metrics.serve().shard.planned,
              0u);
    one.reset();

    // --lanes=4 on a FRESH store: the job fans out as four shards
    // (one owns zero benchmarks - the planner does not shrink to
    // the grid) and the merge pass assembles the artifact.
    ResultStore::configureGlobal(_state + "/store-four");
    auto four = makeServer(4);
    ServedOutcome outcome_four;
    const ExperimentRunResult served_four = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome_four);
    ASSERT_TRUE(outcome_four.served) << outcome_four.fallbackReason;
    ASSERT_EQ(served_four.exitCode, 0);
    ASSERT_NE(served_four.artifact, nullptr);
    expectBitIdentical(*served_four.artifact, *local.artifact);

    ASSERT_TRUE(served_four.artifact->metrics.hasServe());
    EXPECT_EQ(served_four.artifact->metrics.serve().shard.planned,
              4u);
    // The merge saw every cell in the store: nothing re-simulated.
    ASSERT_TRUE(served_four.artifact->metrics.hasResultStore());
    const ResultStoreStats merge_store =
        served_four.artifact->metrics.resultStore();
    EXPECT_EQ(merge_store.hits, 6u);
    EXPECT_EQ(merge_store.stores, 0u);

    four->requestDrain();
    four->waitStopped();
    const ServerStats stats = four->stats();
    EXPECT_EQ(stats.jobsSharded, 1u);
    EXPECT_EQ(stats.shardsPlanned, 4u);
    EXPECT_EQ(stats.shardsRequeued, 0u);
    EXPECT_EQ(stats.shardsAbandoned, 0u);
    EXPECT_EQ(stats.jobsCompleted, 1u);
    EXPECT_EQ(stats.laneCrashes, 0u);
}

TEST_F(ShardServeTest, ColdShardedJobReportsColdThenWarm)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = shardDiffExperiment();

    // A fresh trace cache and store, armed before the lanes fork:
    // the first job's shards generate every trace, the merge pass
    // only reads them back from the cache. The job is cold.
    TraceCache::configureGlobal(_state + "/trace-cache");
    ResultStore::configureGlobal(_state + "/store");
    auto server = makeServer(4);
    ServedOutcome first_outcome;
    const ExperimentRunResult first = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &first_outcome);
    ASSERT_TRUE(first_outcome.served) << first_outcome.fallbackReason;
    ASSERT_EQ(first.exitCode, 0);
    ASSERT_NE(first.artifact, nullptr);
    ASSERT_TRUE(first.artifact->metrics.hasServe());
    EXPECT_EQ(first.artifact->metrics.serve().shard.planned, 4u);
    EXPECT_FALSE(first.artifact->metrics.serve().warm);

    // The identical job again: nothing left to generate anywhere.
    ServedOutcome second_outcome;
    const ExperimentRunResult second = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &second_outcome);
    ASSERT_TRUE(second_outcome.served)
        << second_outcome.fallbackReason;
    ASSERT_EQ(second.exitCode, 0);
    ASSERT_NE(second.artifact, nullptr);
    ASSERT_TRUE(second.artifact->metrics.hasServe());
    EXPECT_EQ(second.artifact->metrics.serve().shard.planned, 4u);
    EXPECT_TRUE(second.artifact->metrics.serve().warm);
    expectBitIdentical(*second.artifact, *first.artifact);

    server->requestDrain();
    server->waitStopped();
    EXPECT_EQ(server->stats().jobsCompleted, 2u);
    EXPECT_EQ(server->stats().warmHits, 1u);
}

TEST_F(ShardServeTest, MidShardSigkillNeverResimulatesFinishedCells)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = gatedShardExperiment();

    // Oracle first, gate open so the body never parks, no store and
    // no simulation log (the oracle's constructions are not counted).
    ResultStore::configureGlobal("");
    std::ofstream(g_shard_gate).put('\n');
    const ExperimentRunResult oracle =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(oracle.exitCode, 0);
    ASSERT_NE(oracle.artifact, nullptr);
    std::filesystem::remove(g_shard_gate);

    // Arm the count log and the store BEFORE the fork: both shards
    // inherit them.
    g_shard_sim_log = _dir + "/sim.log";
    ResultStore::configureGlobal(_state + "/store");
    auto server = makeServer(2);

    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    const RunRequest request = makeRunRequest(
        def.slug, false, RunConfig::fromEnvironment(false));
    ASSERT_TRUE(writeFrame(fd.value(), request.toJson()).ok());
    auto accepted = readFrame(fd.value());
    ASSERT_TRUE(accepted.ok());
    ASSERT_EQ(accepted.value().stringOr("type", ""), "accepted");

    // Grid 1's two cells resolved (and persisted) across the two
    // shards; both bodies now park on the gate, so NO cell is in
    // flight when the shot lands.
    double cells = 0;
    while (cells < 2) {
        auto frame = readFrame(fd.value(), 120.0);
        ASSERT_TRUE(frame.ok());
        ASSERT_EQ(frame.value().stringOr("type", ""), "progress");
        cells = frame.value().numberOr("cells", 0);
    }

    int victim = -1;
    ASSERT_TRUE(eventually([&] {
        for (const LaneView &lane : server->laneViews()) {
            if (lane.slug == def.slug && lane.pid > 0) {
                victim = lane.pid;
                return true;
            }
        }
        return false;
    }));
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    // Open the gate for the replacement incarnation: its grid-1
    // partition comes back from the shard journal / the store, then
    // both shards run grid 2 and the merge assembles the artifact.
    std::ofstream(g_shard_gate).put('\n');
    const Json terminal = readTerminalFrame(fd.value());
    ::close(fd.value());

    ASSERT_EQ(terminal.stringOr("type", ""), "artifact");
    EXPECT_EQ(terminal.numberOr("exit_code", -1), 0.0);
    const RunArtifact artifact =
        RunArtifact::fromJson(terminal.at("artifact"));
    expectBitIdentical(artifact, *oracle.artifact);

    // THE core claim: 2 benchmarks x 2 distinct configs = 4 unique
    // cells, and the factory ran exactly once per cell across every
    // lane incarnation - the killed shard's finished cells were
    // restored, not re-simulated; only its unfinished cells re-ran.
    EXPECT_EQ(simulatedCellCount(), 4u);
    // And the merge simulated nothing at all.
    ASSERT_TRUE(artifact.metrics.hasResultStore());
    EXPECT_EQ(artifact.metrics.resultStore().hits, 4u);
    EXPECT_EQ(artifact.metrics.resultStore().stores, 0u);
    ASSERT_TRUE(artifact.metrics.hasServe());
    EXPECT_EQ(artifact.metrics.serve().shard.planned, 2u);

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_GE(stats.laneCrashes, 1u);
    EXPECT_GE(stats.lanesForked, 3u);
    EXPECT_EQ(stats.jobsCompleted, 1u);
    EXPECT_EQ(stats.shardsAbandoned, 0u);
}

TEST_F(ShardServeTest, OverlappingConcurrentRunsSimulateSharedCellsOnce)
{
    // Thread-only (no fork): two in-process sessions with cell
    // claims share a store; their intersection must be simulated by
    // exactly one of them, whichever wins the claim.
    ResultStore::configureGlobal(_state + "/store");
    const std::vector<SweepColumn> columns = {
        btbColumn("btb", TableSpec::setAssoc(256, 4), true)};

    RunMetrics metrics_a;
    RunMetrics metrics_b;
    GridResult grid_a;
    GridResult grid_b;
    std::thread thread_a([&] {
        SuiteRunner runner({"idl", "gcc"});
        RunSession session;
        session.metrics = &metrics_a;
        session.cellClaims = true;
        grid_a = runner.run({columns}, session).front();
    });
    std::thread thread_b([&] {
        SuiteRunner runner({"idl", "gcc", "perl"});
        RunSession session;
        session.metrics = &metrics_b;
        session.cellClaims = true;
        grid_b = runner.run({columns}, session).front();
    });
    thread_a.join();
    thread_b.join();

    // Both grids complete regardless of who simulated what.
    EXPECT_EQ(grid_a.presentCount("btb", {"idl", "gcc"}), 2u);
    EXPECT_EQ(grid_b.presentCount("btb", {"idl", "gcc", "perl"}),
              3u);

    ASSERT_TRUE(metrics_a.hasResultStore());
    ASSERT_TRUE(metrics_b.hasResultStore());
    const ResultStoreStats sa = metrics_a.resultStore();
    const ResultStoreStats sb = metrics_b.resultStore();

    // The union is 3 cells; 5 cell-resolutions happened. Exactly 3
    // simulations (each under a claim) and exactly 2 servings of
    // the intersection - as claim-deferred servings when the runs
    // truly overlapped, as plain store hits when one finished
    // first. Any double-simulation breaks the first sum; any lost
    // cell breaks the second.
    EXPECT_EQ(sa.stores + sb.stores, 3u);
    EXPECT_EQ(sa.claims + sb.claims, 3u);
    EXPECT_EQ(sa.hits + sa.claimServed + sb.hits + sb.claimServed,
              2u);
    EXPECT_EQ(sa.invalidated + sb.invalidated, 0u);
}

} // namespace
} // namespace ibp
