/**
 * @file
 * Differential tests of the supervised worker-lane pool (src/serve):
 * a --lanes=1 server is the bit-identical compatibility oracle for
 * the in-process runner, a multi-lane server is bit-identical to
 * --lanes=1 for a single job, a SIGTERM drain with two busy lanes
 * persists both unfinished requests and a restarted server resumes
 * them from their journals, and the client-side receive deadline
 * turns a silent daemon into a clean fallback.
 *
 * Lane processes are fork()ed children: anything the experiment
 * bodies must observe from the test (gates) goes through the
 * filesystem, and any global they read must be set BEFORE the server
 * forks its pool. Fork-based tests are skipped under TSan, which
 * cannot follow a multithreaded parent into fork().
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/btb.hh"
#include "robust/fault_injection.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

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

/** Gate file paths the lane-side bodies poll; set before the server
 *  forks its pool so the children inherit them. */
std::string g_lane_gate_a;
std::string g_lane_gate_b;

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

std::vector<SweepColumn>
laneColumns()
{
    return {{"btb", [] {
                 return std::make_unique<BtbPredictor>(
                     TableSpec::setAssoc(256, 4), true);
             }}};
}

/** A real (tiny) sweep for the differential comparisons. */
const ExperimentDef &
laneDiffExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_lanes_diff", "lanes test: differential",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto columns = laneColumns();
             const GridResult grid =
                 runner.run(columns, context.session());
             context.emit(runner.benchmarkTable("lanes diff grid",
                                                grid, columns));
             context.note("lanes differential note");
         }});
    return def;
}

/** Journalled grid, file gate, second grid - one per lane so a
 *  two-lane drain has two distinct busy jobs. */
const ExperimentDef &
gatedLaneExperiment(const char *slug, const std::string *gate)
{
    return registerExperiment(
        {slug, "lanes test: gated drain/resume",
         [gate](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto columns = laneColumns();
             const GridResult first =
                 runner.run(columns, context.session());
             waitForGateFile(*gate, context.session());
             const GridResult second =
                 runner.run(columns, context.session());
             context.emit(runner.benchmarkTable("gated grid 1",
                                                first, columns));
             context.emit(runner.benchmarkTable("gated grid 2",
                                                second, columns));
         }});
}

class LaneServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        char dir_template[] = "/tmp/ibplaneXXXXXX";
        ASSERT_NE(::mkdtemp(dir_template), nullptr);
        _dir = dir_template;
        _socket = _dir + "/s.sock";
        _state = _dir + "/state";
        g_lane_gate_a = _dir + "/gate_a";
        g_lane_gate_b = _dir + "/gate_b";
    }

    void
    TearDown() override
    {
        unsetenv("IBP_EVENTS");
        std::error_code ec;
        std::filesystem::remove_all(_dir, ec);
    }

    std::unique_ptr<SweepServer>
    makeServer(unsigned lanes, double cell_ceiling = 0.0)
    {
        ServerConfig config;
        config.socketPath = _socket;
        config.stateDir = _state;
        config.retryAfterSeconds = 0.01;
        config.echo = false;
        config.lanes = lanes;
        config.cellCeilingSeconds = cell_ceiling;
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

TEST_F(LaneServeTest, OneLaneIsBitIdenticalToInProcess)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = laneDiffExperiment();
    const ExperimentRunResult local =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(local.exitCode, 0);
    ASSERT_NE(local.artifact, nullptr);

    auto server = makeServer(1);
    ServedOutcome outcome;
    const ExperimentRunResult served = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome);
    ASSERT_TRUE(outcome.served) << outcome.fallbackReason;
    ASSERT_EQ(served.exitCode, 0);
    ASSERT_NE(served.artifact, nullptr);

    expectBitIdentical(*served.artifact, *local.artifact);
    // The serve telemetry block is the only marker.
    EXPECT_FALSE(local.artifact->metrics.hasServe());
    EXPECT_TRUE(served.artifact->metrics.hasServe());

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.jobsCompleted, 1u);
    EXPECT_EQ(stats.lanesForked, 1u);
    EXPECT_EQ(stats.laneCrashes, 0u);
    EXPECT_EQ(stats.laneKills, 0u);
}

TEST_F(LaneServeTest, TwoLanesAreBitIdenticalToOneLane)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = laneDiffExperiment();
    // The in-process run doubles as the --lanes=1 oracle: the test
    // above pins those two equal, so equality here chains to both.
    const ExperimentRunResult local =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(local.exitCode, 0);

    auto server = makeServer(2);
    ServedOutcome outcome;
    const ExperimentRunResult served = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome);
    ASSERT_TRUE(outcome.served) << outcome.fallbackReason;
    ASSERT_EQ(served.exitCode, 0);
    ASSERT_NE(served.artifact, nullptr);
    expectBitIdentical(*served.artifact, *local.artifact);

    server->requestDrain();
    server->waitStopped();
    EXPECT_EQ(server->stats().lanesForked, 2u);
}

TEST_F(LaneServeTest, ServedJobRunsTheClientConfigNotTheDaemons)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = laneDiffExperiment();
    // The daemon - and the lanes it forks - sees none of the
    // client's knobs: full trace scale, no faults, default retries.
    unsetenv("IBP_EVENTS");
    auto server = makeServer(2);

    // The client's config: a small scale, and faults that fail the
    // idl cell (seed 1) with no retry to clear them.
    ExperimentOptions options = quietOptions();
    options.config = RunConfig{};
    options.config->eventScale = 0.05;
    options.config->faults =
        FaultInjector::parse("sim:0.3,seed=1").value();
    options.config->retry.maxAttempts = 1;
    const ExperimentRunResult local =
        runExperimentInProcess(def, options);
    ASSERT_EQ(local.exitCode, 3);
    ASSERT_NE(local.artifact, nullptr);

    ServedOutcome outcome;
    const ExperimentRunResult served = runExperimentViaDaemon(
        def, options, clientOptions(), &outcome);
    ASSERT_TRUE(outcome.served) << outcome.fallbackReason;
    EXPECT_EQ(served.exitCode, 3);
    ASSERT_NE(served.artifact, nullptr);
    expectBitIdentical(*served.artifact, *local.artifact);
    EXPECT_EQ(served.artifact->manifest.eventScale, 0.05);

    const auto failedCells = [](const RunArtifact &artifact) {
        std::vector<std::string> cells;
        for (const auto &failure : artifact.metrics.failures()) {
            cells.push_back(failure.column + "/" + failure.benchmark +
                            "/" + failure.kind + "/" + failure.error);
        }
        return cells;
    };
    EXPECT_EQ(failedCells(*local.artifact),
              std::vector<std::string>{
                  "btb/idl/transient/injected transient fault at "
                  "sim/0/btb/idl"});
    EXPECT_EQ(failedCells(*served.artifact),
              failedCells(*local.artifact));

    server->requestDrain();
    server->waitStopped();
}

TEST_F(LaneServeTest, MultiLaneDrainPersistsBothAndRestartResumes)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def_a =
        gatedLaneExperiment("TEST_lanes_gate_a", &g_lane_gate_a);
    const ExperimentDef &def_b =
        gatedLaneExperiment("TEST_lanes_gate_b", &g_lane_gate_b);

    // --- First server: two lanes, one parked job on each. ---
    auto server = makeServer(2);
    int fds[2] = {-1, -1};
    const RunRequest requests[2] = {
        makeRunRequest(def_a.slug, false,
                       RunConfig::fromEnvironment(false)),
        makeRunRequest(def_b.slug, false,
                       RunConfig::fromEnvironment(false)),
    };
    for (int i = 0; i < 2; ++i) {
        auto fd = connectDaemon(_socket);
        ASSERT_TRUE(fd.ok());
        fds[i] = fd.value();
        ASSERT_TRUE(writeFrame(fds[i], requests[i].toJson()).ok());
        auto accepted = readFrame(fds[i]);
        ASSERT_TRUE(accepted.ok());
        ASSERT_EQ(accepted.value().stringOr("type", ""),
                  "accepted");
    }
    // Both first grids journalled (the bodies then park on their
    // gate files, which do not exist yet).
    for (int i = 0; i < 2; ++i) {
        double cells = 0;
        while (cells < 2) {
            auto frame = readFrame(fds[i]);
            ASSERT_TRUE(frame.ok());
            ASSERT_EQ(frame.value().stringOr("type", ""),
                      "progress");
            cells = frame.value().numberOr("cells", 0);
        }
    }

    // Drain: dispatch stops, both lanes stop at the next cell
    // boundary (the gate poll observes the abort flag), both
    // unfinished requests persist.
    server->requestDrain();
    for (int i = 0; i < 2; ++i) {
        for (;;) {
            auto frame = readFrame(fds[i]);
            ASSERT_TRUE(frame.ok());
            const std::string type =
                frame.value().stringOr("type", "");
            if (type == "progress")
                continue;
            ASSERT_EQ(type, "drained");
            break;
        }
        ::close(fds[i]);
    }
    server->waitStopped();
    EXPECT_EQ(server->stats().jobsDrained, 2u);
    EXPECT_EQ(server->stats().laneCrashes, 0u);
    EXPECT_TRUE(std::filesystem::exists(_state + "/pending.json"));
    const std::string journals[2] = {
        _state + "/" + requests[0].journalStem() + ".ckpt",
        _state + "/" + requests[1].journalStem() + ".ckpt"};
    EXPECT_TRUE(std::filesystem::exists(journals[0]));
    EXPECT_TRUE(std::filesystem::exists(journals[1]));
    server.reset();

    // --- Second server: open gates first, then let the restored
    // jobs run to completion from their journals. ---
    std::ofstream(g_lane_gate_a).put('\n');
    std::ofstream(g_lane_gate_b).put('\n');
    auto restarted = makeServer(2);
    EXPECT_EQ(restarted->stats().jobsRestored, 2u);
    EXPECT_FALSE(
        std::filesystem::exists(_state + "/pending.json"));
    ASSERT_TRUE(eventually([&] {
        return restarted->stats().jobsCompleted >= 2;
    }));

    restarted->requestDrain();
    restarted->waitStopped();
    // Clean completions retire both journals.
    EXPECT_FALSE(std::filesystem::exists(journals[0]));
    EXPECT_FALSE(std::filesystem::exists(journals[1]));
}

TEST_F(LaneServeTest, ClientReceiveDeadlineTurnsSilenceIntoFallback)
{
    // A listening socket that never accepts: connect() succeeds via
    // the backlog and the request frame fits in the socket buffer,
    // but no reply ever comes - exactly a hung daemon, no fork
    // needed.
    auto listener = listenDaemon(_socket);
    ASSERT_TRUE(listener.ok());

    ClientOptions client = clientOptions();
    client.receiveTimeoutSeconds = 0.2;
    client.maxAttempts = 1;
    ServedOutcome outcome;
    const auto start = std::chrono::steady_clock::now();
    const ExperimentRunResult result = runExperimentViaDaemon(
        laneDiffExperiment(), quietOptions(), client, &outcome);
    const double waited =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    ::close(listener.value());

    EXPECT_FALSE(outcome.served);
    EXPECT_NE(outcome.fallbackReason.find("timed out"),
              std::string::npos)
        << outcome.fallbackReason;
    // The deadline, not some much larger default, bounded the wait
    // (the in-process fallback run dominates the rest).
    EXPECT_LT(waited, 30.0);
    ASSERT_EQ(result.exitCode, 0);
    ASSERT_NE(result.artifact, nullptr);
    EXPECT_FALSE(result.artifact->metrics.hasServe());
}

} // namespace
} // namespace ibp
