/**
 * @file
 * End-to-end tests of the ibpd sweep service (src/serve): served
 * results are bit-identical to in-process runs, identical concurrent
 * requests coalesce onto one execution, a full queue rejects with a
 * retry-after hint, a drain persists unfinished work that a restarted
 * server resumes from its checkpoint journal, and the client rides
 * out injected `serve.io` faults before falling back in-process.
 *
 * The experiments under test are registered here with TEST_-prefixed
 * slugs; gated bodies park on a condition variable so the tests can
 * hold a job in the Running state deterministically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/btb.hh"
#include "robust/fault_injection.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

namespace ibp {
namespace {

/** Reusable latch the gated experiment bodies park on. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        open = true;
        cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open; });
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex);
        open = false;
    }
};

Gate g_coalesce_gate;
std::atomic<unsigned> g_coalesce_runs{0};
Gate g_drain_gate;

std::vector<SweepColumn>
smallColumns()
{
    return {{"btb", [] {
                 return std::make_unique<BtbPredictor>(
                     TableSpec::setAssoc(256, 4), true);
             }}};
}

/** Instant body: one tiny table, no simulation. */
const ExperimentDef &
trivialExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_serve_triv", "serve test: trivial",
         [](ExperimentContext &context) {
             ResultTable table("trivial", "row");
             table.addColumn("value");
             table.set("r0", "value", 1.0);
             context.emit(table);
         }});
    return def;
}

/** Counts executions, then parks until the test releases it. */
const ExperimentDef &
coalesceExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_serve_coal", "serve test: gated",
         [](ExperimentContext &context) {
             g_coalesce_runs.fetch_add(1);
             g_coalesce_gate.wait();
             ResultTable table("gated", "row");
             table.addColumn("value");
             table.set("r0", "value", 2.0);
             context.emit(table);
         }});
    return def;
}

/** A real (tiny) sweep, for the differential comparison. */
const ExperimentDef &
diffExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_serve_diff", "serve test: differential",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto columns = smallColumns();
             const GridResult grid =
                 runner.run(columns, context.session());
             context.emit(runner.benchmarkTable("serve diff grid",
                                                grid, columns));
             context.note("serve differential note");
         }});
    return def;
}

/** Two journalled grids with a gate between them, so a drain can
 *  land after the first grid's cells are checkpointed. */
const ExperimentDef &
drainExperiment()
{
    static const ExperimentDef &def = registerExperiment(
        {"TEST_serve_drain", "serve test: drain/resume",
         [](ExperimentContext &context) {
             SuiteRunner runner({"idl", "gcc"}, false,
                                context.config());
             const auto columns = smallColumns();
             const GridResult first =
                 runner.run(columns, context.session());
             g_drain_gate.wait();
             const GridResult second =
                 runner.run(columns, context.session());
             context.emit(runner.benchmarkTable(
                 "drain grid 1", first, columns));
             context.emit(runner.benchmarkTable(
                 "drain grid 2", second, columns));
         }});
    return def;
}

class ServeServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        char dir_template[] = "/tmp/ibpservXXXXXX";
        ASSERT_NE(::mkdtemp(dir_template), nullptr);
        _dir = dir_template;
        _socket = _dir + "/s.sock";
        _state = _dir + "/state";
    }

    void
    TearDown() override
    {
        // Never leave a gated body parked: a SweepServer destructor
        // joins its runner thread.
        g_coalesce_gate.release();
        g_drain_gate.release();
        unsetenv("IBP_EVENTS");
        std::error_code ec;
        std::filesystem::remove_all(_dir, ec);
    }

    std::unique_ptr<SweepServer>
    makeServer(std::size_t queue_depth = 8)
    {
        ServerConfig config;
        config.socketPath = _socket;
        config.stateDir = _state;
        config.maxQueueDepth = queue_depth;
        config.retryAfterSeconds = 0.01;
        config.echo = false;
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

    /** Poll @p predicate for up to ~10 s. */
    static bool
    eventually(const std::function<bool()> &predicate)
    {
        for (int i = 0; i < 2000; ++i) {
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

TEST_F(ServeServerTest, PingReportsRegisteredExperiments)
{
    trivialExperiment();
    auto server = makeServer();

    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    Json ping = Json::object();
    ping.set("type", "ping");
    ASSERT_TRUE(writeFrame(fd.value(), ping).ok());
    auto pong = readFrame(fd.value());
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().stringOr("type", ""), "pong");
    EXPECT_GE(pong.value().numberOr("experiments", 0), 1.0);
    ::close(fd.value());

    server->requestDrain();
    server->waitStopped();
}

TEST_F(ServeServerTest, ServedRunIsBitIdenticalToInProcess)
{
    const ExperimentDef &def = diffExperiment();
    const ExperimentRunResult local =
        runExperimentInProcess(def, quietOptions());
    ASSERT_EQ(local.exitCode, 0);
    ASSERT_NE(local.artifact, nullptr);

    auto server = makeServer();
    ServedOutcome outcome;
    const ExperimentRunResult served = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome);
    ASSERT_TRUE(outcome.served) << outcome.fallbackReason;
    ASSERT_EQ(served.exitCode, 0);
    ASSERT_NE(served.artifact, nullptr);

    // The result payload must match bit for bit...
    ASSERT_EQ(served.artifact->tables.size(),
              local.artifact->tables.size());
    for (std::size_t i = 0; i < local.artifact->tables.size(); ++i)
        EXPECT_EQ(tableToJson(served.artifact->tables[i]).dump(),
                  tableToJson(local.artifact->tables[i]).dump());
    EXPECT_EQ(served.artifact->notes, local.artifact->notes);
    EXPECT_EQ(served.artifact->manifest.eventScale,
              local.artifact->manifest.eventScale);

    // ...and the serve telemetry block is the only marker.
    EXPECT_FALSE(local.artifact->metrics.hasServe());
    ASSERT_TRUE(served.artifact->metrics.hasServe());
    const ServeMetrics serve = served.artifact->metrics.serve();
    EXPECT_EQ(serve.requests, 1u);
    EXPECT_EQ(serve.coalesced, 0u);
    EXPECT_EQ(serve.admissionRejects, 0u);

    server->requestDrain();
    server->waitStopped();
    EXPECT_EQ(server->stats().jobsCompleted, 1u);
}

TEST_F(ServeServerTest, IdenticalConcurrentRequestsCoalesce)
{
    const ExperimentDef &def = coalesceExperiment();
    g_coalesce_gate.close();
    g_coalesce_runs.store(0);
    auto server = makeServer();

    ExperimentRunResult results[2];
    ServedOutcome outcomes[2];
    std::thread clients[2];
    for (int i = 0; i < 2; ++i) {
        clients[i] = std::thread([&, i] {
            results[i] = runExperimentViaDaemon(
                def, quietOptions(), clientOptions(),
                &outcomes[i]);
        });
    }

    // The body is parked on the gate, so the job cannot finish
    // before the second request attaches to it.
    ASSERT_TRUE(eventually([&] {
        return server->stats().requestsCoalesced >= 1;
    }));
    g_coalesce_gate.release();
    for (auto &client : clients)
        client.join();

    EXPECT_EQ(g_coalesce_runs.load(), 1u);
    EXPECT_EQ(server->stats().jobsAccepted, 1u);
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(outcomes[i].served)
            << outcomes[i].fallbackReason;
        ASSERT_EQ(results[i].exitCode, 0);
        ASSERT_NE(results[i].artifact, nullptr);
        const ServeMetrics serve =
            results[i].artifact->metrics.serve();
        EXPECT_EQ(serve.requests, 2u);
        EXPECT_EQ(serve.coalesced, 1u);
    }

    server->requestDrain();
    server->waitStopped();
}

TEST_F(ServeServerTest, FullQueueRejectsWithRetryAfter)
{
    trivialExperiment();
    // Depth 0: every request that cannot coalesce is rejected.
    auto server = makeServer(0);

    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    const RunRequest request = makeRunRequest(
        "TEST_serve_triv", false, RunConfig::fromEnvironment(false));
    ASSERT_TRUE(writeFrame(fd.value(), request.toJson()).ok());
    auto reply = readFrame(fd.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().stringOr("type", ""), "rejected");
    EXPECT_GT(reply.value().numberOr("retry_after_ms", 0), 0.0);
    ::close(fd.value());
    EXPECT_GE(server->stats().requestsRejected, 1u);

    // The client rides out maxRejects rejections, then falls back
    // in-process and still produces the artifact.
    ClientOptions client = clientOptions();
    client.maxRejects = 1;
    ServedOutcome outcome;
    const ExperimentRunResult result = runExperimentViaDaemon(
        trivialExperiment(), quietOptions(), client, &outcome);
    EXPECT_FALSE(outcome.served);
    EXPECT_EQ(outcome.rejects, 2u);
    EXPECT_NE(outcome.fallbackReason.find("admission"),
              std::string::npos);
    ASSERT_EQ(result.exitCode, 0);
    ASSERT_NE(result.artifact, nullptr);
    EXPECT_FALSE(result.artifact->metrics.hasServe());
    // The artifact itself says why it was not served, and the
    // reason survives the JSON round trip.
    EXPECT_EQ(result.artifact->metrics.serveFallbackReason(),
              outcome.fallbackReason);
    const RunArtifact reread =
        RunArtifact::fromJson(result.artifact->toJson());
    EXPECT_FALSE(reread.metrics.hasServe());
    EXPECT_EQ(reread.metrics.serveFallbackReason(),
              outcome.fallbackReason);

    server->requestDrain();
    server->waitStopped();
}

TEST_F(ServeServerTest, OtherBuildIsRefused)
{
    trivialExperiment();
    const std::string sha = buildManifest().gitSha;
    if (sha.empty() || sha == "unknown")
        GTEST_SKIP() << "this build does not know its git sha";
    auto server = makeServer();

    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    RunRequest request = makeRunRequest(
        "TEST_serve_triv", false, RunConfig::fromEnvironment(false));
    request.gitSha = sha + "0";
    ASSERT_TRUE(writeFrame(fd.value(), request.toJson()).ok());
    auto reply = readFrame(fd.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().stringOr("type", ""), "incompatible");
    EXPECT_NE(reply.value().stringOr("reason", "").find("build"),
              std::string::npos);
    ::close(fd.value());
    EXPECT_GE(server->stats().requestsIncompatible, 1u);

    server->requestDrain();
    server->waitStopped();
}

TEST_F(ServeServerTest, MalformedRunFramesGetErrorFramesAndServerStaysUp)
{
    const ExperimentDef &def = trivialExperiment();
    auto server = makeServer();
    const Json valid =
        makeRunRequest(def.slug, false, RunConfig::fromEnvironment(false))
            .toJson();
    const auto withConfig = [&valid](const char *field, Json value) {
        Json frame = valid;
        Json config = valid.at("config");
        config.set(field, std::move(value));
        frame.set("config", std::move(config));
        return frame;
    };
    Json no_config = Json::object();
    for (const auto &[key, value] : valid.members()) {
        if (key != "config")
            no_config.set(key, value);
    }
    const Json hostile[] = {
        withConfig("fault_inject", "sim:nope"),
        withConfig("fault_inject", "sim:0.5:often"),
        withConfig("event_scale", -1.0),
        withConfig("event_scale", 1e9),
        withConfig("event_scale", "0.25"),
        withConfig("max_attempts", 0),
        no_config,
    };
    for (const Json &frame : hostile) {
        auto fd = connectDaemon(_socket);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(writeFrame(fd.value(), frame).ok());
        auto reply = readFrame(fd.value());
        ::close(fd.value());
        ASSERT_TRUE(reply.ok()) << frame.dump();
        EXPECT_EQ(reply.value().stringOr("type", ""), "error")
            << frame.dump();
        EXPECT_NE(reply.value().stringOr("message", ""), "");
    }

    // Still up: the well-formed request is served.
    ServedOutcome outcome;
    const ExperimentRunResult served = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &outcome);
    EXPECT_TRUE(outcome.served) << outcome.fallbackReason;
    EXPECT_EQ(served.exitCode, 0);
    EXPECT_EQ(server->stats().jobsAccepted, 1u);

    server->requestDrain();
    server->waitStopped();
}

TEST_F(ServeServerTest, UnknownSlugGetsErrorFrame)
{
    auto server = makeServer();

    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    const RunRequest request = makeRunRequest(
        "TEST_no_such_experiment", false,
        RunConfig::fromEnvironment(false));
    ASSERT_TRUE(writeFrame(fd.value(), request.toJson()).ok());
    auto reply = readFrame(fd.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().stringOr("type", ""), "error");
    EXPECT_NE(
        reply.value().stringOr("message", "").find("unknown"),
        std::string::npos);
    ::close(fd.value());

    server->requestDrain();
    server->waitStopped();
}

TEST_F(ServeServerTest, InjectedSocketFaultRetriesThenFallsBack)
{
    const ExperimentDef &def = trivialExperiment();
    auto server = makeServer();

    // Probability 1 at the client's serve.io site: every
    // conversation attempt dies, so the client must consume its
    // attempts with backoff and then run in-process.
    ExperimentOptions faulted = quietOptions();
    faulted.config = RunConfig::fromEnvironment(false);
    faulted.config->faults = FaultInjector::parse("serve.io:1").value();
    ClientOptions client = clientOptions();
    client.maxAttempts = 2;
    ServedOutcome outcome;
    const ExperimentRunResult result =
        runExperimentViaDaemon(def, faulted, client, &outcome);

    EXPECT_FALSE(outcome.served);
    EXPECT_EQ(outcome.attempts, 2u);
    EXPECT_NE(outcome.fallbackReason, "");
    ASSERT_EQ(result.exitCode, 0);
    ASSERT_NE(result.artifact, nullptr);
    EXPECT_FALSE(result.artifact->metrics.hasServe());

    // Without the faults the same daemon serves again.
    ServedOutcome healthy;
    const ExperimentRunResult served = runExperimentViaDaemon(
        def, quietOptions(), clientOptions(), &healthy);
    EXPECT_TRUE(healthy.served) << healthy.fallbackReason;
    ASSERT_NE(served.artifact, nullptr);
    EXPECT_TRUE(served.artifact->metrics.hasServe());

    server->requestDrain();
    server->waitStopped();
}

TEST_F(ServeServerTest, MissingDaemonFallsBackImmediately)
{
    const ExperimentDef &def = trivialExperiment();
    ClientOptions client;
    client.socketPath = _dir + "/absent.sock";
    ServedOutcome outcome;
    const ExperimentRunResult result = runExperimentViaDaemon(
        def, quietOptions(), client, &outcome);
    EXPECT_FALSE(outcome.served);
    EXPECT_NE(outcome.fallbackReason.find("no daemon"),
              std::string::npos);
    ASSERT_EQ(result.exitCode, 0);
    ASSERT_NE(result.artifact, nullptr);
    EXPECT_FALSE(result.artifact->metrics.hasServe());
}

TEST_F(ServeServerTest, CorruptPendingFileIsQuarantinedNotFatal)
{
    trivialExperiment();
    // A half-written pending.json (kill -9 during a drain, disk
    // full...) must not brick the daemon: startup quarantines the
    // file aside and continues with an empty queue.
    std::filesystem::create_directories(_state);
    {
        std::ofstream out(_state + "/pending.json");
        out << "{\"jobs\": [{\"slug\": \"TEST_serve_tr";
    }
    auto server = makeServer();
    EXPECT_EQ(server->stats().jobsRestored, 0u);
    EXPECT_FALSE(std::filesystem::exists(_state + "/pending.json"));
    EXPECT_TRUE(std::filesystem::exists(_state +
                                        "/pending.json.corrupt"));

    // The daemon still serves normally afterwards.
    ServedOutcome outcome;
    const ExperimentRunResult result = runExperimentViaDaemon(
        trivialExperiment(), quietOptions(), clientOptions(),
        &outcome);
    EXPECT_TRUE(outcome.served) << outcome.fallbackReason;
    EXPECT_EQ(result.exitCode, 0);

    server->requestDrain();
    server->waitStopped();
}

TEST_F(ServeServerTest, DrainPersistsPendingAndRestartResumes)
{
    drainExperiment();
    g_drain_gate.close();

    // --- First server: accept the job, drain it mid-suite. ---
    auto server = makeServer();
    auto fd = connectDaemon(_socket);
    ASSERT_TRUE(fd.ok());
    const RunRequest request = makeRunRequest(
        "TEST_serve_drain", false, RunConfig::fromEnvironment(false));
    const std::string journal =
        _state + "/" + request.journalStem() + ".ckpt";
    ASSERT_TRUE(writeFrame(fd.value(), request.toJson()).ok());

    auto accepted = readFrame(fd.value());
    ASSERT_TRUE(accepted.ok());
    ASSERT_EQ(accepted.value().stringOr("type", ""), "accepted");

    // Read progress until the first grid's two cells are journalled
    // (the body then parks on the gate).
    double cells = 0;
    while (cells < 2) {
        auto frame = readFrame(fd.value());
        ASSERT_TRUE(frame.ok());
        ASSERT_EQ(frame.value().stringOr("type", ""), "progress");
        cells = frame.value().numberOr("cells", 0);
    }

    server->requestDrain();
    g_drain_gate.release();
    // Skip any progress the abort race still delivers; the terminal
    // frame must be "drained", not an artifact.
    for (;;) {
        auto frame = readFrame(fd.value());
        ASSERT_TRUE(frame.ok());
        const std::string type = frame.value().stringOr("type", "");
        if (type == "progress")
            continue;
        ASSERT_EQ(type, "drained");
        break;
    }
    ::close(fd.value());
    server->waitStopped();
    EXPECT_EQ(server->stats().jobsDrained, 1u);
    EXPECT_TRUE(std::filesystem::exists(_state + "/pending.json"));
    EXPECT_TRUE(std::filesystem::exists(journal));
    server.reset();

    // --- Second server: restore the request, resume the journal. ---
    g_drain_gate.close();
    auto restarted = makeServer();
    EXPECT_EQ(restarted->stats().jobsRestored, 1u);
    EXPECT_FALSE(std::filesystem::exists(_state + "/pending.json"));

    // The restored job re-runs the body; its first grid comes back
    // from the journal, and it parks on the gate again - so this
    // late subscriber reliably coalesces onto it.
    auto rider = connectDaemon(_socket);
    ASSERT_TRUE(rider.ok());
    ASSERT_TRUE(
        writeFrame(rider.value(), request.toJson()).ok());
    auto attach = readFrame(rider.value());
    ASSERT_TRUE(attach.ok());
    ASSERT_EQ(attach.value().stringOr("type", ""), "accepted");
    EXPECT_TRUE(attach.value().at("coalesced").asBool());
    g_drain_gate.release();

    Json artifact_frame;
    for (;;) {
        auto frame = readFrame(rider.value());
        ASSERT_TRUE(frame.ok());
        const std::string type = frame.value().stringOr("type", "");
        if (type == "progress")
            continue;
        ASSERT_EQ(type, "artifact");
        artifact_frame = frame.value();
        break;
    }
    ::close(rider.value());

    EXPECT_EQ(artifact_frame.numberOr("exit_code", -1), 0.0);
    // Both cells of grid 1 came out of the drained run's journal.
    EXPECT_EQ(artifact_frame.numberOr("restored_cells", 0), 2.0);
    const RunArtifact artifact =
        RunArtifact::fromJson(artifact_frame.at("artifact"));
    EXPECT_NE(artifact.findTable("drain grid 1"), nullptr);
    EXPECT_NE(artifact.findTable("drain grid 2"), nullptr);

    restarted->requestDrain();
    restarted->waitStopped();
    EXPECT_EQ(restarted->stats().jobsCompleted, 1u);
    // A clean completion retires the journal.
    EXPECT_FALSE(std::filesystem::exists(journal));
}

} // namespace
} // namespace ibp
