/**
 * @file
 * Chaos harness for the supervised lane pool (docs/ROBUSTNESS.md): a
 * lane that dies mid-sweep - by its own SIGABRT or by an external
 * SIGKILL - is contained and replaced while its job resumes from the
 * checkpoint journal and concurrent jobs on other lanes complete
 * bit-identically; a hung cell that cooperative cancellation cannot
 * touch is terminated by the supervisor's hard cell deadline and
 * recorded as a timeout FailedCell while the sweep continues.
 *
 * Crashes are made deterministic without any fault injector: a body
 * that journals one grid and then aborts iff nothing was restored
 * crashes exactly once per job. Hangs use the injector's `hang`
 * action, armed on the request's config: the lane runs the job under
 * its client's faults. Fork-based tests are skipped under TSan.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
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

/** Gate file the SIGKILL test's body polls; set before the fork. */
std::string g_chaos_gate;

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
chaosColumns()
{
    return {{"btb", [] {
                 return std::make_unique<BtbPredictor>(
                     TableSpec::setAssoc(256, 4), true);
             }}};
}

/** Journals grid 1, then dies - unless grid 1 came back from the
 *  journal, i.e. this is the post-crash incarnation. NEVER run this
 *  in-process: it takes its whole process down by design. */
const ExperimentDef &
crashOnceExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_chaos_crash", "chaos test: crash once mid-sweep",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto columns = chaosColumns();
             const GridResult first =
                 runner.run({columns}, context.session()).front();
             if (context.restoredCells() == 0)
                 std::abort();
             const GridResult second =
                 runner.run({columns}, context.session()).front();
             context.emit(runner.benchmarkTable("crash grid 1",
                                                first, columns));
             context.emit(runner.benchmarkTable("crash grid 2",
                                                second, columns));
         }});
    return def;
}

/** A clean tiny sweep riding on the other lane. */
const ExperimentDef &
cleanExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_chaos_clean", "chaos test: clean concurrent sweep",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto columns = chaosColumns();
             const GridResult grid =
                 runner.run({columns}, context.session()).front();
             context.emit(runner.benchmarkTable("clean grid", grid,
                                                columns));
             context.note("chaos clean note");
         }});
    return def;
}

/** A small sweep whose every cell hangs when `sim:...:hang` is
 *  armed; without faults it completes normally. */
const ExperimentDef &
hangProneExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_chaos_hang", "chaos test: hang-prone sweep",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto columns = chaosColumns();
             const GridResult grid =
                 runner.run({columns}, context.session()).front();
             context.emit(runner.benchmarkTable("hang grid", grid,
                                                columns));
         }});
    return def;
}

/** Journalled grid, file gate, second grid - holds its lane busy in
 *  a known state so the test can SIGKILL it mid-job. */
const ExperimentDef &
killTargetExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_chaos_kill", "chaos test: external SIGKILL target",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto columns = chaosColumns();
             const GridResult first =
                 runner.run({columns}, context.session()).front();
             waitForGateFile(g_chaos_gate, context.session());
             const GridResult second =
                 runner.run({columns}, context.session()).front();
             context.emit(runner.benchmarkTable("kill grid 1",
                                                first, columns));
             context.emit(runner.benchmarkTable("kill grid 2",
                                                second, columns));
         }});
    return def;
}

class ChaosServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        char dir_template[] = "/tmp/ibpchaosXXXXXX";
        ASSERT_NE(::mkdtemp(dir_template), nullptr);
        _dir = dir_template;
        _socket = _dir + "/s.sock";
        _state = _dir + "/state";
        g_chaos_gate = _dir + "/gate";
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
        config.laneRetryBackoffSeconds = 0.05;
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
    }

    /** Read frames until the terminal one; progress is skipped. */
    static Json
    readTerminalFrame(int fd)
    {
        for (;;) {
            auto frame = readFrame(fd, 120.0);
            EXPECT_TRUE(frame.ok())
                << (frame.ok() ? ""
                               : frame.error().describe());
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

TEST_F(ChaosServeTest, CrashedLaneIsContainedAndJobResumes)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &crash_def = crashOnceExperiment();
    const ExperimentDef &clean_def = cleanExperiment();
    // Oracle: the clean job, in-process, before any daemon exists.
    const ExperimentRunResult oracle =
        runExperimentInProcess(clean_def, quietOptions());
    ASSERT_EQ(oracle.exitCode, 0);

    auto server = makeServer(2);
    // The crash job goes over the raw protocol: the high-level
    // client's in-process fallback would run the aborting body
    // inside the test binary.
    auto crash_fd = connectDaemon(_socket);
    ASSERT_TRUE(crash_fd.ok());
    ASSERT_TRUE(writeFrame(crash_fd.value(),
                           makeRunRequest(crash_def.slug, false,
                                          RunConfig::fromEnvironment(
                                              false))
                               .toJson())
                    .ok());

    ExperimentRunResult clean_result;
    ServedOutcome clean_outcome;
    std::thread clean_client([&] {
        clean_result = runExperimentViaDaemon(
            clean_def, quietOptions(), clientOptions(),
            &clean_outcome);
    });
    const Json terminal = readTerminalFrame(crash_fd.value());
    ::close(crash_fd.value());
    clean_client.join();

    // The clean job is untouched by its neighbour's SIGABRT.
    ASSERT_TRUE(clean_outcome.served)
        << clean_outcome.fallbackReason;
    ASSERT_EQ(clean_result.exitCode, 0);
    ASSERT_NE(clean_result.artifact, nullptr);
    expectBitIdentical(*clean_result.artifact, *oracle.artifact);

    // The crashed job was retried on a fresh lane and resumed its
    // first grid from the journal instead of recomputing it.
    ASSERT_EQ(terminal.stringOr("type", ""), "artifact");
    EXPECT_EQ(terminal.numberOr("exit_code", -1), 0.0);
    EXPECT_EQ(terminal.numberOr("restored_cells", -1), 2.0);
    const RunArtifact artifact =
        RunArtifact::fromJson(terminal.at("artifact"));
    EXPECT_NE(artifact.findTable("crash grid 1"), nullptr);
    EXPECT_NE(artifact.findTable("crash grid 2"), nullptr);

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.jobsCompleted, 2u);
    EXPECT_GE(stats.laneCrashes, 1u);
    EXPECT_GE(stats.jobsRetried, 1u);
    EXPECT_GE(stats.lanesForked, 3u); // 2 lanes + >=1 replacement
    EXPECT_EQ(stats.laneKills, 0u);
}

TEST_F(ChaosServeTest, HungCellIsKilledByCellCeilingAndRecorded)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = hangProneExperiment();
    auto server = makeServer(1, /*cell_ceiling=*/1.0);

    // Armed on the request, so every attempt of the job - in
    // replacement lanes too - runs under it: every cell hangs,
    // immune to cooperative cancellation, on every attempt
    // (probability 1). Only the supervisor's SIGKILL can end it;
    // after poison-threshold many killed starts the journal poisons
    // the cell and the sweep records it as a timeout and moves on.
    // Raw protocol on purpose: the high-level client would fall
    // back in-process on trouble, and an in-process run of this
    // experiment under an armed injector would hang the test.
    RunConfig config = RunConfig::fromEnvironment(false);
    config.faults = FaultInjector::parse("sim:1:hang,seed=1").value();
    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    const RunRequest request = makeRunRequest(def.slug, false, config);
    ASSERT_TRUE(writeFrame(fd.value(), request.toJson()).ok());
    const Json terminal = readTerminalFrame(fd.value());
    ::close(fd.value());

    ASSERT_EQ(terminal.stringOr("type", ""), "artifact");
    // Exit 3: completed, but with (poisoned) failed cells.
    EXPECT_EQ(terminal.numberOr("exit_code", -1), 3.0);
    const RunArtifact artifact =
        RunArtifact::fromJson(terminal.at("artifact"));
    ASSERT_EQ(artifact.metrics.failureCount(), 2u);
    for (const auto &failure : artifact.metrics.failures())
        EXPECT_EQ(failure.kind, "timeout") << failure.error;

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_GE(stats.laneKills, 1u);
    EXPECT_EQ(stats.jobsCompleted, 1u);
}

TEST_F(ChaosServeTest, ExternalSigkillOnBusyLaneResumesFromJournal)
{
    if (IBP_TSAN)
        GTEST_SKIP() << "fork-based lanes are not TSan-compatible";
    const ExperimentDef &def = killTargetExperiment();
    // Oracle first, with the gate already open so the body never
    // parks; then close the gate again for the daemon run.
    std::ofstream(g_chaos_gate).put('\n');
    const ExperimentRunResult oracle =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(oracle.exitCode, 0);
    std::filesystem::remove(g_chaos_gate);

    auto server = makeServer(2);
    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    const RunRequest request = makeRunRequest(
        def.slug, false, RunConfig::fromEnvironment(false));
    ASSERT_TRUE(writeFrame(fd.value(), request.toJson()).ok());
    auto accepted = readFrame(fd.value());
    ASSERT_TRUE(accepted.ok());
    ASSERT_EQ(accepted.value().stringOr("type", ""), "accepted");
    // Grid 1's two cells journalled; the body now polls the gate.
    double cells = 0;
    while (cells < 2) {
        auto frame = readFrame(fd.value(), 120.0);
        ASSERT_TRUE(frame.ok());
        ASSERT_EQ(frame.value().stringOr("type", ""), "progress");
        cells = frame.value().numberOr("cells", 0);
    }

    // Shoot the busy lane in the head, exactly as an OOM killer or
    // an operator would.
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

    // Open the gate for the replacement incarnation and collect the
    // artifact: grid 1 restored, grid 2 computed, bit-identical.
    std::ofstream(g_chaos_gate).put('\n');
    const Json terminal = readTerminalFrame(fd.value());
    ::close(fd.value());

    ASSERT_EQ(terminal.stringOr("type", ""), "artifact");
    EXPECT_EQ(terminal.numberOr("exit_code", -1), 0.0);
    EXPECT_EQ(terminal.numberOr("restored_cells", -1), 2.0);
    const RunArtifact artifact =
        RunArtifact::fromJson(terminal.at("artifact"));
    expectBitIdentical(artifact, *oracle.artifact);

    server->requestDrain();
    server->waitStopped();
    const ServerStats stats = server->stats();
    EXPECT_GE(stats.laneCrashes, 1u);
    EXPECT_GE(stats.jobsRetried, 1u);
    EXPECT_GE(stats.lanesForked, 3u);
    EXPECT_EQ(stats.jobsCompleted, 1u);
}

} // namespace
} // namespace ibp
