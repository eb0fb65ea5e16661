/**
 * @file
 * Tests of the suite runner: trace caching, parallel grid execution,
 * group averaging and table rendering. Uses tiny event counts via
 * the IBP_EVENTS scale to stay fast.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "core/btb.hh"
#include "oracle/diverse_columns.hh"
#include "sim/suite_runner.hh"

namespace ibp {
namespace {

class SuiteRunnerTest : public ::testing::Test
{
  protected:
    void SetUp() override { setenv("IBP_EVENTS", "0.05", 1); }
    void TearDown() override { unsetenv("IBP_EVENTS"); }
};

TEST_F(SuiteRunnerTest, LoadsRequestedTraces)
{
    SuiteRunner runner({"idl", "gcc"});
    EXPECT_EQ(runner.benchmarks().size(), 2u);
    EXPECT_GT(runner.trace("idl").size(), 1000u);
    EXPECT_EQ(runner.trace("gcc").name(), "gcc");
}

TEST_F(SuiteRunnerTest, GridResultStoresAndAverages)
{
    GridResult grid;
    grid.set("col", "a", 10.0);
    grid.set("col", "b", 20.0);
    EXPECT_TRUE(grid.has("col", "a"));
    EXPECT_FALSE(grid.has("col", "c"));
    EXPECT_DOUBLE_EQ(grid.get("col", "b"), 20.0);
    EXPECT_DOUBLE_EQ(grid.average("col", {"a", "b"}), 15.0);
}

TEST_F(SuiteRunnerTest, RunFillsEveryCell)
{
    SuiteRunner runner({"idl", "perl"});
    const std::vector<SweepColumn> columns = {
        {"btb",
         []() {
             return std::make_unique<BtbPredictor>(
                 TableSpec::unconstrained(), false);
         }},
        {"btb2bc",
         []() {
             return std::make_unique<BtbPredictor>(
                 TableSpec::unconstrained(), true);
         }},
    };
    const GridResult grid = runner.run(columns);
    for (const auto &column : columns) {
        for (const auto &name : runner.benchmarks()) {
            ASSERT_TRUE(grid.has(column.label, name));
            const double rate = grid.get(column.label, name);
            EXPECT_GE(rate, 0.0);
            EXPECT_LE(rate, 100.0);
        }
    }
}

TEST_F(SuiteRunnerTest, RunIsDeterministic)
{
    SuiteRunner runner({"idl"});
    const SweepColumn column{"btb", []() {
                                 return std::make_unique<BtbPredictor>(
                                     TableSpec::unconstrained(),
                                     true);
                             }};
    const double first = runner.run({column}).get("btb", "idl");
    const double second = runner.run({column}).get("btb", "idl");
    EXPECT_EQ(first, second);
}

TEST_F(SuiteRunnerTest, CoveredGroupsRequireFullMembership)
{
    SuiteRunner partial({"idl", "jhm"});
    EXPECT_TRUE(partial.coveredGroups().empty());

    SuiteRunner oo(benchmarkGroups().oo);
    const auto covered = oo.coveredGroups();
    ASSERT_EQ(covered.size(), 1u);
    EXPECT_EQ(covered[0].first, "AVG-OO");
}

TEST_F(SuiteRunnerTest, TablesCarryGroupAndBenchmarkRows)
{
    SuiteRunner runner(benchmarkGroups().oo);
    const std::vector<SweepColumn> columns = {
        {"btb", []() {
             return std::make_unique<BtbPredictor>(
                 TableSpec::unconstrained(), true);
         }}};
    const GridResult grid = runner.run(columns);
    const ResultTable groups =
        runner.groupTable("g", grid, columns);
    EXPECT_EQ(groups.numRows(), 1u); // AVG-OO only
    const ResultTable both =
        runner.benchmarkTable("b", grid, columns);
    EXPECT_EQ(both.numRows(), 1u + 9u);
    // The group row must equal the mean of the member rows.
    double sum = 0;
    for (unsigned r = 1; r < both.numRows(); ++r)
        sum += *both.get(r, 0);
    EXPECT_NEAR(*both.get(0, 0), sum / 9.0, 1e-9);
}

TEST_F(SuiteRunnerTest, ThreadsEnvIsHonouredAndClamped)
{
    const char *saved = std::getenv("IBP_THREADS");
    const std::string restore = saved ? saved : "";
    setenv("IBP_THREADS", "3", 1);
    EXPECT_EQ(simulationThreads(), 3u);
    setenv("IBP_THREADS", "0", 1); // clamped to >= 1
    EXPECT_EQ(simulationThreads(), 1u);
    setenv("IBP_THREADS", "-5", 1);
    EXPECT_EQ(simulationThreads(), 1u);
    if (saved)
        setenv("IBP_THREADS", restore.c_str(), 1);
    else
        unsetenv("IBP_THREADS");
    EXPECT_GE(simulationThreads(), 1u);
}

TEST_F(SuiteRunnerTest, GridsMatchAcrossThreadCounts)
{
    // The parallel path at 8 threads against the serial path at 1 on
    // the 12-column mix (every table kind, s=2, the selector hybrid):
    // any divergence in the threading shows up as a counter mismatch.
    const auto columns = diverseColumns();

    setenv("IBP_THREADS", "8", 1);
    SuiteRunner parallel({"idl", "perl"});
    RunSession parallel_session;
    const GridResult many = parallel.run(columns, parallel_session);

    setenv("IBP_THREADS", "1", 1);
    SuiteRunner serial({"idl", "perl"});
    RunSession serial_session;
    const GridResult one = serial.run(columns, serial_session);
    unsetenv("IBP_THREADS");

    EXPECT_EQ(many.failures().size(), one.failures().size());
    for (const auto &column : columns) {
        for (const auto &name : serial.benchmarks()) {
            ASSERT_TRUE(many.has(column.label, name));
            ASSERT_TRUE(one.has(column.label, name));
            // Bit-identical, not approximately equal.
            EXPECT_EQ(many.get(column.label, name),
                      one.get(column.label, name))
                << column.label << " x " << name;
        }
    }
}

TEST_F(SuiteRunnerTest, RunCollectsMetrics)
{
    SuiteRunner runner({"idl", "perl"});
    const std::vector<SweepColumn> columns = {
        {"btb", []() {
             return std::make_unique<BtbPredictor>(
                 TableSpec::unconstrained(), true);
         }}};
    RunMetrics metrics;
    runner.run(columns, &metrics);
    EXPECT_EQ(metrics.cellCount(), 2u); // 1 column x 2 benchmarks
    EXPECT_GT(metrics.totalBranches(), 0u);
    EXPECT_GT(metrics.runSeconds(), 0.0);
    EXPECT_GT(metrics.branchesPerSecond(), 0.0);
    EXPECT_GT(metrics.peakTableOccupancy(), 0u);
    EXPECT_GE(metrics.threads(), 1u);
    for (const auto &cell : metrics.cells()) {
        EXPECT_EQ(cell.column, "btb");
        EXPECT_GT(cell.branches, 0u);
    }
}

TEST_F(SuiteRunnerTest, BenchmarkSuiteHasSeventeenPrograms)
{
    EXPECT_EQ(benchmarkSuite().size(), 17u);
    const auto &groups = benchmarkGroups();
    EXPECT_EQ(groups.avg.size(), 13u);
    EXPECT_EQ(groups.oo.size(), 9u);
    EXPECT_EQ(groups.c.size(), 4u);
    EXPECT_EQ(groups.avg100.size(), 6u);
    EXPECT_EQ(groups.avg200.size(), 7u);
    EXPECT_EQ(groups.infrequent.size(), 4u);
}

TEST_F(SuiteRunnerTest, UnknownBenchmarkIsFatal)
{
    EXPECT_DEATH(benchmarkProfile("nonesuch"), "unknown benchmark");
}

} // namespace
} // namespace ibp
