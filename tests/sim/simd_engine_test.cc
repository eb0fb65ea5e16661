/**
 * @file
 * Differential tests of the SIMD/SoA batch engine: the block-based
 * traversal with the batched lane engine must produce bit-identical
 * SimResult counters whether the process dispatches vectorized or
 * forced-scalar (IBP_SIMD=off), and whether the trace is consumed
 * zero-copy from columnar `.ibpm` storage or transposed
 * block-by-block from record storage.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "core/simd.hh"
#include "core/target_cache.hh"
#include "oracle/reference_simulate.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_mmap.hh"

namespace ibp {
namespace {

/** Force a dispatch level for one scope, restoring on exit. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level) : _saved(simdLevel())
    {
        setSimdLevelForTest(level);
    }
    ~ScopedSimdLevel() { setSimdLevelForTest(_saved); }

  private:
    SimdLevel _saved;
};

class SimdEngineTest : public ::testing::Test
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

/**
 * Columns chosen to push every engine partition: paper-configured
 * global-history rows (the incremental-pattern lane path), hybrids
 * with shared and deduplicated components, a per-branch (s=2)
 * variant and an unconstrained table (FlatMap probes), plus a BTB
 * and an extension family that decline the kernel and ride the
 * generic record-at-a-time path.
 */
std::vector<SweepColumn>
engineColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    return {
        {"btb", spec("btb")},
        specColumn("paper-p3",
                   paperTwoLevel(3, TableSpec::setAssoc(4096, 4))),
        specColumn("paper-h5",
                   paperHybrid(3, 5, TableSpec::setAssoc(2048, 4))),
        specColumn("paper-h9",
                   paperHybrid(3, 9, TableSpec::setAssoc(2048, 4))),
        specColumn("paper-h9-dup",
                   paperHybrid(3, 9, TableSpec::setAssoc(2048, 4))),
        {"perbranch", spec("twolevel:p=4,table=assoc2:1024,s=2")},
        {"uncon-p4", spec("twolevel:p=4,table=unconstrained")},
        {"targetcache",
         []() {
             return std::make_unique<TargetCachePredictor>(
                 TargetCacheConfig{});
         }},
    };
}

/** simulateMany over @p trace with fresh predictors, filling
 *  @p traversal when non-null. */
std::vector<SimResult>
runEngine(const std::vector<SweepColumn> &columns, const Trace &trace,
          TraversalStats *traversal = nullptr)
{
    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    SimOptions options;
    options.traversal = traversal;
    return simulateMany(raw, trace, options);
}

void
expectSameResults(const std::vector<SweepColumn> &columns,
                  const std::vector<SimResult> &a,
                  const std::vector<SimResult> &b)
{
    ASSERT_EQ(a.size(), columns.size());
    ASSERT_EQ(b.size(), columns.size());
    for (std::size_t i = 0; i < columns.size(); ++i) {
        EXPECT_EQ(a[i].branches, b[i].branches) << columns[i].label;
        EXPECT_EQ(a[i].misses, b[i].misses) << columns[i].label;
        EXPECT_EQ(a[i].noPrediction, b[i].noPrediction)
            << columns[i].label;
        EXPECT_EQ(a[i].tableOccupancy, b[i].tableOccupancy)
            << columns[i].label;
        EXPECT_EQ(a[i].tableCapacity, b[i].tableCapacity)
            << columns[i].label;
    }
}

TEST_F(SimdEngineTest, ForcedScalarMatchesVectorDispatchBitForBit)
{
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto columns = engineColumns();

    // Predictors capture dispatch decisions at construction (FlatMap
    // probe widths, the PDEP scatter), so each run builds its own
    // under the level it tests.
    const std::vector<SimResult> vectorized =
        runEngine(columns, trace);

    ScopedSimdLevel scalar(SimdLevel::Scalar);
    const std::vector<SimResult> forced_off =
        runEngine(columns, trace);
    expectSameResults(columns, vectorized, forced_off);

    // And the scalar engine still matches the per-record oracle
    // loop (tests/oracle/reference_simulate.hh).
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const SimResult one = referenceCell(columns[i], trace);
        EXPECT_EQ(forced_off[i].misses, one.misses)
            << columns[i].label;
        EXPECT_EQ(forced_off[i].branches, one.branches)
            << columns[i].label;
    }
}

TEST_F(SimdEngineTest, ColumnarTraceMatchesRecordStorageBitForBit)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto columns = engineColumns();

    const std::string dir =
        testing::TempDir() + "/ibp_simd_engine_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/trace.ibpm";
    ASSERT_TRUE(saveTraceMmap(trace, path).ok());
    const auto loaded = loadTraceMmap(path);
    ASSERT_TRUE(loaded.ok());
    const Trace &columnar = loaded.value();
    ASSERT_TRUE(columnar.isColumnar());
    ASSERT_EQ(columnar, trace);

    TraversalStats from_records;
    const std::vector<SimResult> transposed =
        runEngine(columns, trace, &from_records);
    TraversalStats from_columns;
    const std::vector<SimResult> zero_copy =
        runEngine(columns, columnar, &from_columns);
    expectSameResults(columns, transposed, zero_copy);

    // The telemetry must show the two storage forms took the two
    // distinct feed paths while the results above stayed identical.
    EXPECT_GT(from_records.transposedBlocks, 0u);
    EXPECT_EQ(from_records.columnarBlocks, 0u);
    EXPECT_GT(from_columns.columnarBlocks, 0u);
    EXPECT_EQ(from_columns.transposedBlocks, 0u);
    EXPECT_GT(from_columns.laneColumns, 0u);
    EXPECT_GT(from_columns.laneMachines, 0u);
    EXPECT_GT(from_columns.genericColumns, 0u);
    EXPECT_EQ(from_columns.laneColumns, from_records.laneColumns);
    EXPECT_EQ(from_columns.laneMachines, from_records.laneMachines);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ibp
