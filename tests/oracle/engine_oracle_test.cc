/**
 * @file
 * Whole-predictor differentials of the simulation engine against the
 * per-record oracle loop (tests/oracle/reference_simulate.hh).
 *
 * simulateMany() runs every column through one traversal with a
 * sweep kernel: shared histories, the batched lane engine, and
 * equal-configuration replicas that mirror a primary's state. None
 * of that may change a counter, so each cell - branches, misses,
 * no-prediction misses, occupancy and capacity - must equal what the
 * seed loop produces for a fresh, unbound predictor of the same
 * column. Covered: the 12-column mix on idl, perl and self (as one
 * traversal and as one-column simulate() calls), a Figure-17 row
 * with deduplicated replicas, and a warm-up window.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "oracle/diverse_columns.hh"
#include "oracle/reference_simulate.hh"
#include "sim/spec_columns.hh"
#include "trace/trace_cache.hh"

namespace ibp {
namespace {

class EngineOracleTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        TraceCache::configureGlobal("");
    }
    void
    TearDown() override
    {
        TraceCache::configureGlobal("");
        unsetenv("IBP_EVENTS");
    }
};

void
expectOracleCell(const SimResult &engine, const SimResult &oracle,
                 const std::string &where)
{
    EXPECT_EQ(engine.benchmark, oracle.benchmark) << where;
    EXPECT_EQ(engine.predictor, oracle.predictor) << where;
    EXPECT_EQ(engine.branches, oracle.branches) << where;
    EXPECT_EQ(engine.misses, oracle.misses) << where;
    EXPECT_EQ(engine.noPrediction, oracle.noPrediction) << where;
    EXPECT_EQ(engine.tableOccupancy, oracle.tableOccupancy) << where;
    EXPECT_EQ(engine.tableCapacity, oracle.tableCapacity) << where;
}

/** simulateMany over fresh predictors of @p columns, each cell
 *  compared with the oracle. */
void
expectEngineMatchesOracle(const std::vector<SweepColumn> &columns,
                          const Trace &trace,
                          const SimOptions &options = {})
{
    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    const std::vector<SimResult> engine =
        simulateMany(raw, trace, options);
    ASSERT_EQ(engine.size(), columns.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const SimResult oracle =
            referenceCell(columns[i], trace, options.warmupBranches);
        expectOracleCell(engine[i], oracle,
                         columns[i].label + " x " + trace.name());
        EXPECT_GT(engine[i].branches, 0u) << columns[i].label;
    }
}

TEST_F(EngineOracleTest, DiverseColumnsMatchCellByCell)
{
    SuiteRunner runner({"idl", "perl", "self"});
    const auto columns = diverseColumns();
    for (const auto &name : runner.benchmarks()) {
        const Trace &trace = runner.trace(name);
        expectEngineMatchesOracle(columns, trace);

        // And as one-column calls: no shared traversal, no replicas.
        for (const auto &column : columns) {
            auto predictor = column.make();
            expectOracleCell(simulate(*predictor, trace),
                             referenceCell(column, trace),
                             "solo " + column.label + " x " + name);
        }
    }
}

TEST_F(EngineOracleTest, Fig17RowWithReplicasMatchesCellByCell)
{
    // The Figure-17 row shape (p1=3 against p2 in 0..12, the diagonal
    // a non-hybrid of twice the component size) plus exact duplicate
    // columns: every hybrid's p1 component and each duplicate become
    // replicas of an earlier primary.
    SuiteRunner runner({"idl"});
    std::vector<SweepColumn> columns;
    for (unsigned p2 = 0; p2 <= 12; ++p2) {
        const std::string label = "p2=" + std::to_string(p2);
        if (p2 == 3) {
            columns.push_back(specColumn(
                label, paperTwoLevel(3, TableSpec::setAssoc(4096, 4))));
        } else {
            columns.push_back(specColumn(
                label,
                paperHybrid(3, p2, TableSpec::setAssoc(2048, 4))));
        }
    }
    columns.push_back(specColumn(
        "p2=7-dup", paperHybrid(3, 7, TableSpec::setAssoc(2048, 4))));
    columns.push_back(specColumn(
        "p2=3-dup", paperTwoLevel(3, TableSpec::setAssoc(4096, 4))));

    TraversalStats traversal;
    SimOptions options;
    options.traversal = &traversal;
    expectEngineMatchesOracle(columns, runner.trace("idl"), options);
    EXPECT_GE(traversal.predictorsDeduped, 12u);
    EXPECT_EQ(traversal.genericColumns, 0u);
}

TEST_F(EngineOracleTest, WarmupWindowMatchesCellByCell)
{
    SuiteRunner runner({"perl"});
    SimOptions options;
    options.warmupBranches = 500;
    expectEngineMatchesOracle(diverseColumns(), runner.trace("perl"),
                              options);
}

} // namespace
} // namespace ibp
