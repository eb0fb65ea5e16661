/**
 * @file
 * Fault-tolerance tests of the suite runner: cell isolation, retry
 * of injected transient faults, partial grids and their degraded
 * averages/tables, trace-generation failures, checkpoint/resume
 * reproduction, and deadline cancellation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>

#include "core/btb.hh"
#include "robust/fault_injection.hh"
#include "sim/suite_runner.hh"

namespace ibp {
namespace {

class FaultToleranceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
    }
    void TearDown() override { unsetenv("IBP_EVENTS"); }
};

SweepColumn
btbColumn(const std::string &label)
{
    return {label, []() {
                return std::make_unique<BtbPredictor>(
                    TableSpec::unconstrained(), true);
            }};
}

/** The environment's config with @p faults armed, eight attempts
 *  per cell and no backoff. */
RunConfig
fastConfig(const char *faults = "")
{
    RunConfig config = RunConfig::fromEnvironment(false);
    config.faults = FaultInjector::parse(faults).value();
    config.retry.maxAttempts = 8;
    config.retry.initialBackoffSeconds = 0.0;
    return config;
}

RunSession
sessionWith(RunMetrics *metrics)
{
    RunSession session;
    session.metrics = metrics;
    return session;
}

TEST_F(FaultToleranceTest, InjectedTransientFaultsAreRetriedAway)
{
    SuiteRunner runner({"idl", "self"});
    const std::vector<SweepColumn> columns = {btbColumn("btb")};

    const GridResult clean = runner.run(columns);

    // Heavy transient faulting: with 8 attempts and per-attempt
    // re-rolls every cell still completes (decisions are a pure
    // hash, so this is deterministic, not flaky).
    const SuiteRunner faulted_runner(
        {"idl", "self"}, false, fastConfig("sim:0.5,seed=11"));
    RunMetrics metrics;
    const GridResult faulted = faulted_runner.run(columns, &metrics);

    EXPECT_FALSE(faulted.partial());
    for (const auto &name : runner.benchmarks()) {
        ASSERT_TRUE(faulted.has("btb", name));
        // Retries must not perturb the simulation itself.
        EXPECT_EQ(faulted.get("btb", name), clean.get("btb", name));
    }
    EXPECT_EQ(metrics.failureCount(), 0u);
    EXPECT_EQ(metrics.cellCount(), 2u);
}

TEST_F(FaultToleranceTest, PermanentFaultsFailOnlyTheirCells)
{
    SuiteRunner runner({"idl", "self"});
    // A predictor factory that always fails: every cell of this
    // column fails permanently while the healthy column completes.
    const std::vector<SweepColumn> columns = {
        btbColumn("good"),
        {"bad",
         []() -> std::unique_ptr<IndirectPredictor> {
             throw RunException(
                 RunError::permanent("factory exploded"));
         }},
    };
    RunMetrics metrics;
    RunSession session = sessionWith(&metrics);
    const GridResult grid = runner.run(columns, session);

    EXPECT_TRUE(grid.partial());
    EXPECT_EQ(grid.failures().size(), 2u);
    for (const auto &name : runner.benchmarks()) {
        EXPECT_TRUE(grid.has("good", name));
        EXPECT_FALSE(grid.has("bad", name));
    }
    for (const auto &failure : grid.failures()) {
        EXPECT_EQ(failure.column, "bad");
        EXPECT_EQ(failure.kind, ErrorKind::Permanent);
        EXPECT_NE(failure.error.find("factory exploded"),
                  std::string::npos);
    }
    EXPECT_EQ(metrics.failureCount(), 2u);
    EXPECT_EQ(metrics.cellCount(), 2u); // only the good column

    // Averages degrade: present members only, NaN when none left.
    EXPECT_EQ(grid.presentCount("bad", {"idl", "self"}), 0u);
    EXPECT_TRUE(std::isnan(grid.average("bad", {"idl", "self"})));
    EXPECT_EQ(grid.presentCount("good", {"idl", "self"}), 2u);
    EXPECT_FALSE(std::isnan(grid.average("good", {"idl", "self"})));

    // Rendering keeps the failed cells blank instead of crashing.
    const ResultTable table =
        runner.benchmarkTable("partial", grid, columns);
    EXPECT_TRUE(table.get("idl", "good").has_value());
    EXPECT_FALSE(table.get("idl", "bad").has_value());
}

TEST_F(FaultToleranceTest, ExhaustedTransientFaultRecordsAttempts)
{
    RunConfig config = fastConfig("sim:1.0"); // never clears
    config.retry.maxAttempts = 3;
    SuiteRunner runner({"idl"}, false, config);
    RunMetrics metrics;
    const GridResult grid = runner.run({btbColumn("btb")}, &metrics);

    ASSERT_EQ(grid.failures().size(), 1u);
    EXPECT_EQ(grid.failures()[0].attempts, 3u);
    EXPECT_EQ(grid.failures()[0].kind, ErrorKind::Transient);
    ASSERT_EQ(metrics.failureCount(), 1u);
    EXPECT_EQ(metrics.failures()[0].attempts, 3u);
}

TEST_F(FaultToleranceTest, TraceGenerationFailureDegradesSuite)
{
    RunConfig config = RunConfig::fromEnvironment(false);
    config.faults = FaultInjector::parse("trace:1.0:permanent").value();
    SuiteRunner runner({"idl", "self"}, false, config);

    // The names survive but no traces do.
    EXPECT_EQ(runner.benchmarks().size(), 2u);
    EXPECT_EQ(runner.failedBenchmarks().size(), 2u);

    RunMetrics metrics;
    RunSession session = sessionWith(&metrics);
    const GridResult grid = runner.run({btbColumn("btb")}, session);
    EXPECT_TRUE(grid.partial());
    EXPECT_EQ(grid.failures().size(), 2u);
    EXPECT_EQ(metrics.failureCount(), 2u);
    EXPECT_EQ(metrics.cellCount(), 0u);
}

TEST_F(FaultToleranceTest, CheckpointResumeReproducesBitForBit)
{
    const std::string path =
        testing::TempDir() + "/ibp_ft_resume.jsonl";
    std::remove(path.c_str());
    CheckpointMeta meta;
    meta.slug = "test";
    meta.gitSha = "sha";
    meta.eventScale = 0.05;
    meta.quick = false;

    SuiteRunner runner({"idl", "self"});
    const std::vector<SweepColumn> columns = {btbColumn("a"),
                                              btbColumn("b")};

    GridResult first;
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        RunMetrics metrics;
        RunSession session = sessionWith(&metrics);
        session.checkpoint = journal.value().get();
        // Two grids with identical labels, like fig11's row sweeps.
        first = runner.run(columns, session);
        runner.run(columns, session);
        EXPECT_EQ(metrics.cellCount(), 8u);
    }

    // "Crash" and resume: every cell must come back from the journal
    // (zero simulations) with bit-identical rates.
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        EXPECT_EQ(journal.value()->restoredCells(), 8u);
        RunMetrics metrics;
        RunSession session = sessionWith(&metrics);
        session.checkpoint = journal.value().get();
        const GridResult resumed = runner.run(columns, session);
        EXPECT_EQ(metrics.cellCount(), 0u);
        for (const auto &column : columns) {
            for (const auto &name : runner.benchmarks()) {
                ASSERT_TRUE(resumed.has(column.label, name));
                EXPECT_EQ(resumed.get(column.label, name),
                          first.get(column.label, name));
            }
        }
    }
}

TEST_F(FaultToleranceTest, PartialCheckpointOnlySkipsJournalledCells)
{
    const std::string path =
        testing::TempDir() + "/ibp_ft_partial.jsonl";
    std::remove(path.c_str());
    CheckpointMeta meta;
    meta.slug = "test";
    meta.gitSha = "sha";
    meta.eventScale = 0.05;
    meta.quick = false;

    SuiteRunner runner({"idl", "self"});
    const std::vector<SweepColumn> columns = {btbColumn("btb")};
    const GridResult reference = runner.run(columns);

    // Pre-seed the journal with one cell carrying a sentinel value:
    // resume must trust the journal for that cell and simulate the
    // other.
    {
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        ASSERT_TRUE(
            journal.value()->append({0, "btb", "idl", 99.5}).ok());
    }
    auto journal = CheckpointJournal::open(path, meta);
    ASSERT_TRUE(journal.ok());
    RunMetrics metrics;
    RunSession session = sessionWith(&metrics);
    session.checkpoint = journal.value().get();
    const GridResult grid = runner.run(columns, session);
    EXPECT_EQ(metrics.cellCount(), 1u); // only "self" simulated
    EXPECT_EQ(grid.get("btb", "idl"), 99.5);
    EXPECT_EQ(grid.get("btb", "self"),
              reference.get("btb", "self"));
}

/** Enough records to comfortably cross the cancellation poll period. */
Trace
longTrace(const std::string &name)
{
    Trace trace(name);
    for (unsigned i = 0; i < 40000; ++i) {
        trace.append({0x1000 + (i % 64) * 4, 0x2000 + (i % 8) * 16,
                      BranchKind::IndirectCall, true});
    }
    return trace;
}

TEST_F(FaultToleranceTest, SimulateHonoursDeadline)
{
    const Trace trace = longTrace("cancel-me");
    BtbPredictor predictor(TableSpec::unconstrained(), true);
    SimOptions options;
    options.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    try {
        simulate(predictor, trace, options);
        FAIL() << "simulation past its deadline completed";
    } catch (const RunException &exception) {
        EXPECT_EQ(exception.error().kind, ErrorKind::Timeout);
        EXPECT_NE(exception.error().message.find("deadline"),
                  std::string::npos);
    }
}

TEST_F(FaultToleranceTest, ExpiredDeadlineDoesNotOutliveItsAttempt)
{
    // Each attempt carries its own deadline value, so an attempt
    // that ran out of time cannot cancel the next one (the
    // stale-cancel race a shared cancel flag had).
    const Trace trace = longTrace("stale-cancel");
    BtbPredictor predictor(TableSpec::unconstrained(), true);
    SimOptions expired;
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    EXPECT_THROW(simulate(predictor, trace, expired), RunException);

    predictor.reset();
    SimOptions next;
    next.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(1);
    EXPECT_NO_THROW(simulate(predictor, trace, next));
}

TEST_F(FaultToleranceTest, WatchdogCancelsOverDeadlineCells)
{
    // A predictor slow enough that the cell blows its deadline long
    // before the trace ends; the watchdog must cancel it and record
    // a timeout failure rather than hang the sweep.
    class SlowPredictor : public IndirectPredictor
    {
      public:
        Prediction
        predict(Addr) override
        {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
            return {};
        }
        void update(Addr, Addr) override {}
        void reset() override {}
        std::string name() const override { return "slow"; }
        std::uint64_t tableCapacity() const override { return 0; }
        std::uint64_t tableOccupancy() const override { return 0; }
    };

    RunConfig config = fastConfig();
    config.retry.maxAttempts = 1;
    config.retry.cellDeadlineSeconds = 0.05;
    SuiteRunner runner({"idl"}, false, config);
    if (runner.trace("idl").countPredictedIndirect() < 2000)
        GTEST_SKIP() << "trace too small to outlast the watchdog";

    const GridResult grid = runner.run(
        {{"slow", []() { return std::make_unique<SlowPredictor>(); }}});
    ASSERT_EQ(grid.failures().size(), 1u);
    EXPECT_EQ(grid.failures()[0].kind, ErrorKind::Timeout);
}

TEST_F(FaultToleranceTest, LegacyRunOverloadStillWorks)
{
    SuiteRunner runner({"idl"});
    RunMetrics metrics;
    const GridResult grid =
        runner.run({btbColumn("btb")}, &metrics);
    EXPECT_TRUE(grid.has("btb", "idl"));
    EXPECT_FALSE(grid.partial());
    EXPECT_EQ(metrics.cellCount(), 1u);
}

} // namespace
} // namespace ibp
