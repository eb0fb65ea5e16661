/**
 * @file
 * Multi-grid run() against one call per grid: the same grids handed
 * to one SuiteRunner::run call must give bit-identical GridResults
 * and failures, the same checkpoint records (and resume from either
 * journal), the same cells failed by armed "sim" faults, and the
 * same per-shard cells as the sequential calls - only the chunking
 * differs. Also covers forEachTrace() and the guard on blocking
 * trace access from executor workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/btb.hh"
#include "core/factory.hh"
#include "robust/fault_injection.hh"
#include "sim/result_store.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_block.hh"
#include "util/json.hh"

namespace ibp {
namespace {

namespace fs = std::filesystem;

class MultiGridTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        _dir = testing::TempDir() + "/ibp_multi_grid_test";
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }
    void
    TearDown() override
    {
        ResultStore::configureGlobal("");
        unsetenv("IBP_EVENTS");
        fs::remove_all(_dir);
    }

    std::string _dir;
};

const std::vector<std::string> kBenchmarks = {"idl", "perl", "gcc"};

/**
 * A fig18-like sweep: one grid per table size, the same labels in
 * every grid, keyed two-level columns next to an unkeyed BTB.
 */
std::vector<std::vector<SweepColumn>>
sizeSweep(bool keyed_only = false)
{
    std::vector<std::vector<SweepColumn>> grids;
    for (const std::uint64_t size : {256u, 1024u, 4096u}) {
        std::vector<SweepColumn> &columns = grids.emplace_back();
        for (const unsigned p : {0u, 2u, 4u}) {
            columns.push_back(specColumn(
                "p=" + std::to_string(p),
                paperTwoLevel(p, TableSpec::setAssoc(size, 4))));
        }
        if (keyed_only) {
            columns.push_back(btbColumn(
                "btb", TableSpec::fullyAssoc(size), true));
        } else {
            columns.push_back({"btb", [size]() {
                                   return std::make_unique<BtbPredictor>(
                                       TableSpec::fullyAssoc(size),
                                       true);
                               }});
        }
    }
    return grids;
}

/** One run() call per grid, in order. */
std::vector<GridResult>
runSequentially(const SuiteRunner &runner,
                const std::vector<std::vector<SweepColumn>> &grids,
                RunSession &session)
{
    std::vector<GridResult> results;
    for (const auto &columns : grids)
        results.push_back(runner.run({columns}, session).front());
    return results;
}

/** Bit-identical cells and identical failure lists, grid by grid. */
void
expectSameGrids(const std::vector<GridResult> &expected,
                const std::vector<GridResult> &actual,
                const std::vector<std::vector<SweepColumn>> &grids)
{
    ASSERT_EQ(expected.size(), grids.size());
    ASSERT_EQ(actual.size(), grids.size());
    for (std::size_t g = 0; g < grids.size(); ++g) {
        for (const auto &column : grids[g]) {
            for (const auto &name : kBenchmarks) {
                ASSERT_EQ(expected[g].has(column.label, name),
                          actual[g].has(column.label, name))
                    << "grid " << g << " " << column.label << " x "
                    << name;
                if (!expected[g].has(column.label, name))
                    continue;
                EXPECT_EQ(expected[g].get(column.label, name),
                          actual[g].get(column.label, name))
                    << "grid " << g << " " << column.label << " x "
                    << name;
            }
        }
        const auto &want = expected[g].failures();
        const auto &got = actual[g].failures();
        ASSERT_EQ(want.size(), got.size()) << "grid " << g;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i].column, got[i].column);
            EXPECT_EQ(want[i].benchmark, got[i].benchmark);
            EXPECT_EQ(want[i].error, got[i].error);
            EXPECT_EQ(want[i].kind, got[i].kind);
            EXPECT_EQ(want[i].attempts, got[i].attempts);
        }
    }
}

using JournalCell = std::tuple<unsigned, std::string, std::string,
                               double>;

/** The completion records of a journal file, sorted. */
std::vector<JournalCell>
completedCells(const std::string &path)
{
    std::vector<JournalCell> cells;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const Json entry = Json::parse(line);
        if (!entry.contains("miss"))
            continue; // header or start record
        cells.emplace_back(
            static_cast<unsigned>(entry.numberOr("grid", 0)),
            entry.stringOr("column", ""),
            entry.stringOr("benchmark", ""),
            entry.at("miss").asNumber());
    }
    std::sort(cells.begin(), cells.end());
    return cells;
}

TEST_F(MultiGridTest, EqualsSequentialCallsBitForBit)
{
    const SuiteRunner runner(kBenchmarks);
    const auto grids = sizeSweep();

    RunSession sequential;
    sequential.nextGridId = 5;
    const auto expected = runSequentially(runner, grids, sequential);

    RunSession fused;
    fused.nextGridId = 5;
    RunMetrics metrics;
    fused.metrics = &metrics;
    const auto actual = runner.run(grids, fused);

    expectSameGrids(expected, actual, grids);
    // One id per grid, in order.
    EXPECT_EQ(fused.nextGridId, sequential.nextGridId);
    EXPECT_EQ(fused.nextGridId, 5u + grids.size());
    // One chunk per benchmark served all three grids.
    EXPECT_EQ(metrics.cellCount(), 12u * kBenchmarks.size());
    EXPECT_TRUE(runner.run({}, fused).empty());
}

TEST_F(MultiGridTest, CheckpointRecordsMatchAndResumeAcrossForms)
{
    CheckpointMeta meta;
    meta.slug = "multi";
    meta.gitSha = "sha";
    meta.eventScale = 0.05;
    const std::string sequential_path = _dir + "/sequential.jsonl";
    const std::string fused_path = _dir + "/fused.jsonl";

    const SuiteRunner runner(kBenchmarks);
    const auto grids = sizeSweep();

    std::vector<GridResult> expected;
    {
        auto journal = CheckpointJournal::open(sequential_path, meta);
        ASSERT_TRUE(journal.ok());
        RunSession session;
        session.checkpoint = journal.value().get();
        expected = runSequentially(runner, grids, session);
    }
    {
        auto journal = CheckpointJournal::open(fused_path, meta);
        ASSERT_TRUE(journal.ok());
        RunSession session;
        session.checkpoint = journal.value().get();
        expectSameGrids(expected, runner.run(grids, session), grids);
    }
    // Same (grid id, label, benchmark, rate) records either way.
    const auto records = completedCells(sequential_path);
    EXPECT_EQ(records.size(), 12u * kBenchmarks.size());
    EXPECT_EQ(records, completedCells(fused_path));

    // Each journal resumes the other form with zero simulations.
    for (const bool fused_resume : {false, true}) {
        auto journal = CheckpointJournal::open(
            fused_resume ? sequential_path : fused_path, meta);
        ASSERT_TRUE(journal.ok());
        EXPECT_EQ(journal.value()->restoredCells(), records.size());
        RunMetrics metrics;
        RunSession session;
        session.metrics = &metrics;
        session.checkpoint = journal.value().get();
        const auto resumed =
            fused_resume ? runner.run(grids, session)
                         : runSequentially(runner, grids, session);
        EXPECT_EQ(metrics.cellCount(), 0u);
        expectSameGrids(expected, resumed, grids);
    }
}

TEST_F(MultiGridTest, SimFaultsFailTheSameCells)
{
    RunConfig config = RunConfig::fromEnvironment(false);
    config.faults =
        FaultInjector::parse("sim:0.3:permanent,seed=11").value();
    config.retry.initialBackoffSeconds = 0.0;
    const SuiteRunner runner(kBenchmarks, false, config);
    const auto grids = sizeSweep();

    RunSession sequential;
    const auto expected = runSequentially(runner, grids, sequential);
    RunSession fused;
    const auto actual = runner.run(grids, fused);
    expectSameGrids(expected, actual, grids);

    // The spec must actually split the cells, or the test shows
    // nothing.
    std::size_t failed = 0;
    for (const auto &grid : expected)
        failed += grid.failures().size();
    EXPECT_GT(failed, 0u);
    EXPECT_LT(failed, 12u * kBenchmarks.size());
}

TEST_F(MultiGridTest, ShardsSimulateTheSameCells)
{
    const SuiteRunner runner(kBenchmarks);
    const auto grids = sizeSweep(/*keyed_only=*/true);

    for (unsigned shard = 0; shard < 2; ++shard) {
        std::vector<GridResult> forms[2];
        std::size_t simulated[2] = {0, 0};
        for (const bool fused : {false, true}) {
            // A fresh store per run: every owned cell simulates.
            ResultStore::configureGlobal(
                _dir + "/store-" + std::to_string(shard) +
                (fused ? "-fused" : "-sequential"));
            RunMetrics metrics;
            RunSession session;
            session.metrics = &metrics;
            session.shardIndex = shard;
            session.shardCount = 2;
            session.nextGridId = 1;
            forms[fused] = fused ? runner.run(grids, session)
                                 : runSequentially(runner, grids,
                                                   session);
            simulated[fused] = metrics.cellCount();
        }
        expectSameGrids(forms[0], forms[1], grids);
        EXPECT_EQ(simulated[0], simulated[1]);
        // The shard owns part of the grid, not all or none of it.
        EXPECT_GT(simulated[1], 0u);
        EXPECT_LT(simulated[1], 12u * kBenchmarks.size());
    }
}

TEST_F(MultiGridTest, ForEachTraceOnAFreshRunnerVisitsEveryTrace)
{
    // Called right after construction, while acquisition is still
    // in flight: the walks run as the traces land.
    const SuiteRunner runner(kBenchmarks);
    std::vector<std::size_t> walked(kBenchmarks.size(), 0);
    std::atomic<unsigned> calls{0};
    runner.forEachTrace([&](std::size_t index, const Trace &trace) {
        TraceBlockCursor cursor(trace);
        TraceBlock block;
        while (cursor.next(block))
            walked[index] += block.count;
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), kBenchmarks.size());
    for (std::size_t i = 0; i < kBenchmarks.size(); ++i)
        EXPECT_EQ(walked[i], runner.trace(kBenchmarks[i]).size());
}

TEST_F(MultiGridTest, ForEachTraceSkipsFailedAcquisitions)
{
    RunConfig config = RunConfig::fromEnvironment(false);
    config.faults =
        FaultInjector::parse("trace:0.5:permanent,seed=3").value();
    config.retry.initialBackoffSeconds = 0.0;
    const std::vector<std::string> names = benchmarkGroups().avg;
    const SuiteRunner runner(names, false, config);

    std::vector<int> visited(names.size(), 0);
    RunMetrics metrics;
    runner.forEachTrace(
        [&](std::size_t index, const Trace &) { visited[index] += 1; },
        &metrics);

    const auto &failed = runner.failedBenchmarks();
    ASSERT_GT(failed.size(), 0u);
    ASSERT_LT(failed.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(visited[i], failed.count(names[i]) ? 0 : 1)
            << names[i];
    }
    ASSERT_TRUE(metrics.hasTraceSource());
    EXPECT_EQ(metrics.tracesGenerated() + metrics.traceCacheHits(),
              names.size() - failed.size());
}

TEST_F(MultiGridTest, BlockingTraceAccessFromAWorkerFailsLoudly)
{
    // Acquisition hangs on one worker; the other asks for the trace.
    // Parking it would leave no worker for the acquisition queue, so
    // the runner must abort with a message instead of hanging.
    // Threadsafe style: the child re-executes with a fresh pool
    // instead of inheriting this process's workers through fork().
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            setenv("IBP_THREADS", "2", 1);
            RunConfig config = RunConfig::fromEnvironment(false);
            config.faults =
                FaultInjector::parse("trace:1.0:hang").value();
            const SuiteRunner runner({"idl"}, false, config);
            Executor::Batch batch(Executor::global());
            batch.spawn([&runner]() { runner.trace("idl"); });
            batch.wait();
        },
        "forEachTrace");
    ::testing::FLAGS_gtest_death_test_style = style;
}

} // namespace
} // namespace ibp
