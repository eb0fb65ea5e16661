/**
 * @file
 * Differential tests of the fused sweep kernel: a grid chunk run as
 * one traversal (shared first-level histories, SweepKernel) must
 * produce exactly the counters of the per-record oracle loop
 * (tests/oracle/reference_simulate.hh), for every predictor family,
 * at any thread count. Also covers the chunk -> one-cell fallback
 * (injected "fused"-site faults, sim-armed injectors) and the
 * scheduler-determinism guarantee (identical tables and checkpoint
 * journals across thread counts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cascaded.hh"
#include "core/factory.hh"
#include "core/ittage.hh"
#include "core/shared_hybrid.hh"
#include "core/target_cache.hh"
#include "core/two_level.hh"
#include "oracle/reference_simulate.hh"
#include "robust/fault_injection.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_cache.hh"

namespace ibp {
namespace {

class FusedKernelTest : public ::testing::Test
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
        unsetenv("IBP_THREADS");
    }
};

/**
 * One column per predictor family and per fusion-relevant code path:
 * BTBs (never join a kernel), limited-precision two-level predictors
 * at two path lengths of the SAME history group (the scatter-mask
 * fast path must serve both depths from one compressed-target
 * cache), full-precision and per-branch (s=2) variants (separate
 * groups / builder path), the fold compressor and a concat key mix
 * (non-BitSelect assembly over the shared buffer), history elements
 * beyond TargetOnly, conditional-target history, hybrids (every
 * component joins), and the extension families (cascaded, ITTAGE,
 * target cache, shared hybrid) which decline the kernel but still
 * ride the shared traversal.
 */
std::vector<SweepColumn>
fusedColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    return {
        {"btb", spec("btb")},
        {"btb2bc", spec("btb2bc")},
        {"2lev-p2", spec("twolevel:p=2,table=assoc4:1024")},
        {"2lev-p6", spec("twolevel:p=6,table=assoc4:1024")},
        {"uncon-p4", spec("twolevel:p=4,table=unconstrained")},
        {"perbranch", spec("twolevel:p=4,table=assoc2:1024,s=2")},
        {"fold", spec("twolevel:p=8,table=tagless:4096,"
                      "compressor=fold")},
        {"pingpong-cat",
         spec("twolevel:p=4,table=assoc2:2048,interleave=pingpong,"
              "mix=concat")},
        {"hybrid", spec("hybrid:p1=3,p2=7,table=assoc4:1024,conf=2")},
        {"hybrid-sel",
         spec("hybrid:p1=3,p2=7,table=assoc2:1024,meta=selector")},
        {"targetaddr",
         []() {
             TwoLevelConfig config =
                 paperTwoLevel(3, TableSpec::setAssoc(1024, 4));
             config.historyElement = HistoryElement::TargetAndAddress;
             return std::make_unique<TwoLevelPredictor>(config);
         }},
        {"condtargets",
         []() {
             TwoLevelConfig config =
                 paperTwoLevel(4, TableSpec::setAssoc(1024, 4));
             config.includeConditionalTargets = true;
             return std::make_unique<TwoLevelPredictor>(config);
         }},
        {"cascaded",
         []() {
             return std::make_unique<CascadedPredictor>(
                 CascadedConfig::classic(1024));
         }},
        {"ittage",
         []() {
             return std::make_unique<IttagePredictor>(IttageConfig{});
         }},
        {"targetcache",
         []() {
             return std::make_unique<TargetCachePredictor>(
                 TargetCacheConfig{});
         }},
        {"sharedhybrid",
         []() {
             return std::make_unique<SharedHybridPredictor>(
                 SharedHybridConfig{});
         }},
    };
}

void
expectSameGrid(const SuiteRunner &runner,
               const std::vector<SweepColumn> &columns,
               const GridResult &fused, const GridResult &reference)
{
    EXPECT_EQ(fused.failures().size(), reference.failures().size());
    for (const auto &column : columns) {
        for (const auto &name : runner.benchmarks()) {
            ASSERT_TRUE(fused.has(column.label, name));
            ASSERT_TRUE(reference.has(column.label, name));
            // Bit-identical, not approximately equal: the fused
            // engine must count the same branches the same way.
            EXPECT_EQ(fused.get(column.label, name),
                      reference.get(column.label, name))
                << column.label << " x " << name;
        }
    }
}

TEST_F(FusedKernelTest, KernelRunMatchesOracleBitForBit)
{
    // Engine-level differential, no SuiteRunner scheduling involved:
    // simulateMany (which fuses through its own SweepKernel) versus
    // the per-record oracle, on the same trace (conditionals
    // included so the conditional-history paths are exercised).
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto columns = fusedColumns();

    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    TraversalStats traversal;
    SimOptions options;
    options.traversal = &traversal;
    const std::vector<SimResult> many =
        simulateMany(raw, trace, options);
    ASSERT_EQ(many.size(), columns.size());
    EXPECT_GT(traversal.predictorsBound, 0u);
    EXPECT_GT(traversal.predictorsUnbound, 0u);

    for (std::size_t i = 0; i < columns.size(); ++i) {
        const SimResult one = referenceCell(columns[i], trace);
        EXPECT_EQ(many[i].branches, one.branches) << columns[i].label;
        EXPECT_EQ(many[i].misses, one.misses) << columns[i].label;
        EXPECT_EQ(many[i].noPrediction, one.noPrediction)
            << columns[i].label;
        EXPECT_EQ(many[i].tableOccupancy, one.tableOccupancy)
            << columns[i].label;
        EXPECT_EQ(many[i].tableCapacity, one.tableCapacity)
            << columns[i].label;
        EXPECT_TRUE(many[i].sharedTraversal);
        EXPECT_GE(many[i].groupSeconds, many[i].seconds);
    }
}

TEST_F(FusedKernelTest, DedupedReplicasMatchOracleBitForBit)
{
    // A fig17-style row: several hybrids share their first component
    // (equal TwoLevelConfig), and two columns are fully identical.
    // The kernel dedupes those into replicas that mirror one
    // primary's per-record predictions instead of simulating their
    // own tables - every counter, including table occupancy, must
    // still match the oracle run of each column exactly.
    SuiteRunner runner({"idl"}, /*emitConditionals=*/true);
    const Trace &trace = runner.trace("idl");
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    const std::vector<SweepColumn> columns = {
        {"h5", spec("hybrid:p1=3,p2=5,table=assoc4:1024,conf=2")},
        {"h7", spec("hybrid:p1=3,p2=7,table=assoc4:1024,conf=2")},
        {"h7-dup", spec("hybrid:p1=3,p2=7,table=assoc4:1024,conf=2")},
        {"solo6", spec("twolevel:p=6,table=assoc4:1024")},
        {"solo6-dup", spec("twolevel:p=6,table=assoc4:1024")},
    };

    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    TraversalStats traversal;
    SimOptions options;
    options.traversal = &traversal;
    const std::vector<SimResult> many =
        simulateMany(raw, trace, options);
    ASSERT_EQ(many.size(), columns.size());
    // h7/h7-dup first components mirror h5's, h7-dup's second mirrors
    // h7's, and solo6-dup mirrors solo6: at least four replicas.
    EXPECT_GE(traversal.predictorsDeduped, 4u);

    for (std::size_t i = 0; i < columns.size(); ++i) {
        const SimResult one = referenceCell(columns[i], trace);
        EXPECT_EQ(many[i].branches, one.branches) << columns[i].label;
        EXPECT_EQ(many[i].misses, one.misses) << columns[i].label;
        EXPECT_EQ(many[i].noPrediction, one.noPrediction)
            << columns[i].label;
        EXPECT_EQ(many[i].tableOccupancy, one.tableOccupancy)
            << columns[i].label;
        EXPECT_EQ(many[i].tableCapacity, one.tableCapacity)
            << columns[i].label;
    }

    // The grid path surfaces the dedup count in the run telemetry,
    // and it survives the JSON round-trip.
    setenv("IBP_THREADS", "1", 1);
    SuiteRunner grid_runner({"idl"}, /*emitConditionals=*/true);
    RunSession session;
    RunMetrics metrics;
    session.metrics = &metrics;
    const GridResult fused = grid_runner.run({columns}, session).front();
    expectSameGrid(grid_runner, columns, fused,
                   referenceGrid(grid_runner, columns));

    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_GE(sweep.predictorsDeduped, 4u);
    const RunMetrics reloaded = RunMetrics::fromJson(metrics.toJson());
    EXPECT_EQ(reloaded.sweepKernel().predictorsDeduped,
              sweep.predictorsDeduped);
}

TEST_F(FusedKernelTest, FusedGridMatchesOracleGridSingleThread)
{
    setenv("IBP_THREADS", "1", 1);
    SuiteRunner runner({"idl", "perl", "self"},
                       /*emitConditionals=*/true);
    const auto columns = fusedColumns();
    const GridResult reference = referenceGrid(runner, columns);

    RunSession fused_session;
    RunMetrics metrics;
    fused_session.metrics = &metrics;
    const GridResult fused = runner.run({columns}, fused_session).front();

    expectSameGrid(runner, columns, fused, reference);

    // Telemetry: every chunk fused, none fell back, and the kernel
    // bound the two-level/hybrid members while the extension
    // families declined.
    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_GT(sweep.groupsFused, 0u);
    EXPECT_EQ(sweep.groupsPerCell, 0u);
    EXPECT_GT(sweep.predictorsBound, 0u);
    EXPECT_GT(sweep.predictorsUnbound, 0u);

    // Fused cells carry the synthetic-seconds marker and the real
    // group wall time.
    for (const CellMetrics &cell : metrics.cells()) {
        EXPECT_TRUE(cell.secondsSynthetic) << cell.column;
        EXPECT_GE(cell.groupSeconds, cell.seconds) << cell.column;
    }

    // The telemetry round-trips through the JSON artifact.
    const RunMetrics reloaded = RunMetrics::fromJson(metrics.toJson());
    ASSERT_TRUE(reloaded.hasSweepKernel());
    EXPECT_EQ(reloaded.sweepKernel().groupsFused, sweep.groupsFused);
    EXPECT_EQ(reloaded.sweepKernel().predictorsBound,
              sweep.predictorsBound);
    ASSERT_FALSE(reloaded.cells().empty());
    EXPECT_TRUE(reloaded.cells()[0].secondsSynthetic);
}

TEST_F(FusedKernelTest, FusedGridMatchesAcrossThreadCounts)
{
    const auto columns = fusedColumns();

    setenv("IBP_THREADS", "8", 1);
    SuiteRunner parallel({"idl", "perl"}, /*emitConditionals=*/true);
    RunSession parallel_session;
    const GridResult fused = parallel.run({columns}, parallel_session).front();

    setenv("IBP_THREADS", "1", 1);
    SuiteRunner serial({"idl", "perl"}, /*emitConditionals=*/true);
    RunSession serial_session;
    const GridResult one_thread =
        serial.run({columns}, serial_session).front();

    const GridResult reference = referenceGrid(serial, columns);
    expectSameGrid(serial, columns, fused, reference);
    expectSameGrid(serial, columns, one_thread, reference);
}

TEST_F(FusedKernelTest, InjectedFusedFaultFallsBackPerCell)
{
    // A fault injected at the "fused" site kills every grid chunk;
    // their cells must re-run as one-cell chunks with bit-identical
    // results and ZERO failure records (the fallback is recovery,
    // not failure).
    SuiteRunner runner({"idl", "self"});
    const auto columns = fusedColumns();

    const GridResult clean = runner.run(columns);

    RunConfig config = RunConfig::fromEnvironment(false);
    config.faults = FaultInjector::parse("fused:1.0").value();
    const SuiteRunner faulted_runner({"idl", "self"}, false, config);
    RunMetrics metrics;
    const GridResult faulted = faulted_runner.run(columns, &metrics);

    EXPECT_FALSE(faulted.partial());
    expectSameGrid(runner, columns, faulted, clean);
    EXPECT_EQ(metrics.failureCount(), 0u);
    EXPECT_EQ(metrics.cellCount(),
              columns.size() * runner.benchmarks().size());

    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_EQ(sweep.groupsFused, 0u);
    EXPECT_GT(sweep.fallbackInjected, 0u);
    EXPECT_EQ(sweep.groupsPerCell, sweep.fallbackInjected);
}

TEST_F(FusedKernelTest, SimArmedInjectorForcesPerCellAccounting)
{
    // Arming the "sim" site must start every chunk as single cells:
    // sim faults are defined per (cell, attempt), which only the
    // one-cell path can honour. Heavy transient faulting then
    // retries away without perturbing results.
    SuiteRunner runner({"idl", "self"});
    const std::vector<SweepColumn> columns = {
        {"btb", []() { return makePredictorFromSpec("btb"); }},
        {"2lev",
         []() {
             return makePredictorFromSpec(
                 "twolevel:p=3,table=assoc4:1024");
         }},
    };
    const GridResult clean = runner.run(columns);

    RunConfig config = RunConfig::fromEnvironment(false);
    config.faults = FaultInjector::parse("sim:0.5,seed=11").value();
    config.retry.maxAttempts = 8;
    config.retry.initialBackoffSeconds = 0.0;
    const SuiteRunner faulted_runner({"idl", "self"}, false, config);
    RunMetrics metrics;
    const GridResult faulted = faulted_runner.run(columns, &metrics);

    EXPECT_FALSE(faulted.partial());
    expectSameGrid(runner, columns, faulted, clean);
    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_EQ(sweep.groupsFused, 0u);
    EXPECT_EQ(sweep.fallbackInjectorArmed, 2u); // one per benchmark
    EXPECT_EQ(sweep.groupsPerCell, 2u);
}

TEST_F(FusedKernelTest, FactoryErrorInChunkFallsBackAndIsolates)
{
    // A throwing factory poisons its whole grid chunk (the engine
    // can't build the member set), but one-cell isolation must
    // still complete every healthy cell and record exactly the bad
    // column's failures.
    RunConfig config = RunConfig::fromEnvironment(false);
    config.retry.maxAttempts = 2;
    config.retry.initialBackoffSeconds = 0.0;
    SuiteRunner runner({"idl"}, false, config);
    const std::vector<SweepColumn> columns = {
        {"good", []() { return makePredictorFromSpec("btb"); }},
        {"bad",
         []() -> std::unique_ptr<IndirectPredictor> {
             throw RunException(
                 RunError::permanent("factory exploded"));
         }},
    };
    RunMetrics metrics;
    const GridResult grid = runner.run(columns, &metrics);

    EXPECT_TRUE(grid.has("good", "idl"));
    EXPECT_FALSE(grid.has("bad", "idl"));
    ASSERT_EQ(grid.failures().size(), 1u);
    EXPECT_EQ(grid.failures()[0].column, "bad");
    EXPECT_EQ(grid.failures()[0].kind, ErrorKind::Permanent);
    EXPECT_NE(grid.failures()[0].error.find("factory exploded"),
              std::string::npos);

    ASSERT_TRUE(metrics.hasSweepKernel());
    const SweepKernelStats sweep = metrics.sweepKernel();
    EXPECT_EQ(sweep.fallbackFactory, sweep.groupsPerCell);
    EXPECT_GT(sweep.fallbackFactory, 0u);
}

/** The journal's cell lines, sorted (completion order is
 *  scheduling-dependent; content must not be). */
std::vector<std::string>
sortedJournalLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

TEST_F(FusedKernelTest, SchedulerIsDeterministicAcrossThreadCounts)
{
    // Satellite: IBP_THREADS=1, 2 and 8 must produce identical
    // result tables AND identical (order-normalised) checkpoint
    // journals - work stealing may reorder completion, never change
    // values.
    const auto columns = fusedColumns();
    CheckpointMeta meta;
    meta.slug = "determinism";
    meta.gitSha = "sha";
    meta.eventScale = 0.05;
    meta.quick = false;

    std::vector<std::string> rendered;
    std::vector<std::vector<std::string>> journals;
    for (const char *threads : {"1", "2", "8"}) {
        setenv("IBP_THREADS", threads, 1);
        const std::string path = testing::TempDir() +
                                 "/ibp_determinism_" + threads +
                                 ".jsonl";
        std::remove(path.c_str());
        SuiteRunner runner({"idl", "perl"},
                           /*emitConditionals=*/true);
        auto journal = CheckpointJournal::open(path, meta);
        ASSERT_TRUE(journal.ok());
        RunSession session;
        session.checkpoint = journal.value().get();
        const GridResult grid = runner.run({columns}, session).front();
        EXPECT_FALSE(grid.partial());

        rendered.push_back(
            runner.benchmarkTable("determinism", grid, columns)
                .toCsv());
        journals.push_back(sortedJournalLines(path));
        std::remove(path.c_str());
    }
    EXPECT_EQ(rendered[0], rendered[1]);
    EXPECT_EQ(rendered[0], rendered[2]);
    EXPECT_EQ(journals[0], journals[1]);
    EXPECT_EQ(journals[0], journals[2]);
}

} // namespace
} // namespace ibp
