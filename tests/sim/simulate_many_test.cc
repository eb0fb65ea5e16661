/**
 * @file
 * Differential tests of the multi-predictor engine: simulateMany()
 * must produce exactly the counters of the per-record oracle loop
 * (tests/oracle/reference_simulate.hh), and a SuiteRunner sweep must
 * fill the oracle's grid with any thread count. Also covers the
 * SuiteRunner side of the trace cache: a warm cache must satisfy
 * construction with zero generator runs and a byte-identical trace.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>

#include "core/factory.hh"
#include "oracle/reference_simulate.hh"
#include "sim/suite_runner.hh"
#include "synth/benchmark_suite.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_mmap.hh"

namespace ibp {
namespace {

class SimulateManyTest : public ::testing::Test
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

/** A diverse sweep: different families, table shapes and history
 * depths, so a divergence in any predictor-facing code path shows. */
std::vector<SweepColumn>
diverseColumns()
{
    const auto spec = [](const std::string &text) {
        return [text]() { return makePredictorFromSpec(text); };
    };
    return {
        {"btb", spec("btb")},
        {"btb2bc", spec("btb2bc")},
        {"2lev-p3", spec("twolevel:p=3,table=assoc4:1024")},
        {"2lev-p8", spec("twolevel:p=8,table=unconstrained")},
        {"hybrid", spec("hybrid:p1=3,p2=7,table=assoc2:2048,conf=2")},
    };
}

void
expectSameResult(const SimResult &many, const SimResult &one)
{
    EXPECT_EQ(many.benchmark, one.benchmark);
    EXPECT_EQ(many.predictor, one.predictor);
    EXPECT_EQ(many.branches, one.branches);
    EXPECT_EQ(many.misses, one.misses);
    EXPECT_EQ(many.noPrediction, one.noPrediction);
    EXPECT_EQ(many.tableOccupancy, one.tableOccupancy);
    EXPECT_EQ(many.tableCapacity, one.tableCapacity);
}

TEST_F(SimulateManyTest, MatchesOracleBitForBit)
{
    SuiteRunner runner({"idl"});
    const Trace &trace = runner.trace("idl");
    const auto columns = diverseColumns();

    std::vector<std::unique_ptr<IndirectPredictor>> predictors;
    std::vector<IndirectPredictor *> raw;
    for (const auto &column : columns) {
        predictors.push_back(column.make());
        raw.push_back(predictors.back().get());
    }
    const std::vector<SimResult> many = simulateMany(raw, trace);
    ASSERT_EQ(many.size(), columns.size());

    for (std::size_t i = 0; i < columns.size(); ++i) {
        expectSameResult(many[i], referenceCell(columns[i], trace));
        EXPECT_GT(many[i].branches, 0u);
    }
}

TEST_F(SimulateManyTest, HonoursWarmupWindow)
{
    SuiteRunner runner({"idl"});
    const Trace &trace = runner.trace("idl");
    SimOptions options;
    options.warmupBranches = 500;

    auto many_predictor = makePredictorFromSpec("btb2bc");
    IndirectPredictor *raw = many_predictor.get();
    const auto many = simulateMany({&raw, 1}, trace, options);
    auto one_predictor = makePredictorFromSpec("btb2bc");
    const SimResult one =
        referenceSimulate(*one_predictor, trace, options.warmupBranches);
    ASSERT_EQ(many.size(), 1u);
    expectSameResult(many[0], one);
}

TEST_F(SimulateManyTest, EmptySpanReturnsEmpty)
{
    SuiteRunner runner({"idl"});
    EXPECT_TRUE(simulateMany({}, runner.trace("idl")).empty());
}

void
expectSameGrid(const SuiteRunner &runner,
               const std::vector<SweepColumn> &columns,
               const GridResult &a, const GridResult &b)
{
    EXPECT_EQ(a.failures().size(), b.failures().size());
    for (const auto &column : columns) {
        for (const auto &name : runner.benchmarks()) {
            ASSERT_TRUE(a.has(column.label, name));
            ASSERT_TRUE(b.has(column.label, name));
            // Bit-identical, not approximately equal: the engines
            // must count the same branches the same way.
            EXPECT_EQ(a.get(column.label, name),
                      b.get(column.label, name))
                << column.label << " x " << name;
        }
    }
}

TEST_F(SimulateManyTest, GridMatchesOracleGrid)
{
    SuiteRunner runner({"idl", "perl", "self"});
    const auto columns = diverseColumns();
    const GridResult reference = referenceGrid(runner, columns);

    RunSession session;
    RunMetrics metrics;
    session.metrics = &metrics;
    const GridResult fast = runner.run(columns, session);

    expectSameGrid(runner, columns, reference, fast);
    EXPECT_EQ(metrics.cellCount(),
              columns.size() * runner.benchmarks().size());
}

TEST_F(SimulateManyTest, GridMatchesAcrossThreadCounts)
{
    const auto columns = diverseColumns();

    setenv("IBP_THREADS", "1", 1);
    SuiteRunner serial({"idl", "perl"});
    RunSession serial_session;
    const GridResult one_thread = serial.run(columns, serial_session);

    setenv("IBP_THREADS", "8", 1);
    SuiteRunner parallel({"idl", "perl"});
    RunSession parallel_session;
    const GridResult many_threads =
        parallel.run(columns, parallel_session);

    expectSameGrid(serial, columns, one_thread, many_threads);
}

TEST_F(SimulateManyTest, WarmTraceCacheSkipsGeneration)
{
    const std::string dir =
        testing::TempDir() + "/ibp_warm_cache_test";
    std::filesystem::remove_all(dir);
    TraceCache::configureGlobal(dir);

    SuiteRunner cold({"idl", "perl"});
    EXPECT_EQ(cold.traceSourceStats().generated, 2u);
    EXPECT_EQ(cold.traceSourceStats().cacheHits, 0u);

    SuiteRunner warm({"idl", "perl"});
    EXPECT_EQ(warm.traceSourceStats().generated, 0u)
        << "a warm cache must perform zero trace generation";
    EXPECT_EQ(warm.traceSourceStats().cacheHits, 2u);
    for (const auto &name : cold.benchmarks()) {
        // Cached traces are byte-identical to generated ones (the
        // binary format round-trips every field).
        EXPECT_EQ(warm.trace(name), cold.trace(name));
        EXPECT_EQ(warm.trace(name).seed(), cold.trace(name).seed());
        EXPECT_EQ(warm.trace(name).name(), name);
    }

    // The sweep over cached traces still produces the exact grid.
    const auto columns = diverseColumns();
    RunSession cold_session;
    RunSession warm_session;
    RunMetrics warm_metrics;
    warm_session.metrics = &warm_metrics;
    const GridResult cold_grid = cold.run(columns, cold_session);
    const GridResult warm_grid = warm.run(columns, warm_session);
    expectSameGrid(cold, columns, cold_grid, warm_grid);

    // run() publishes the trace-source counters exactly once.
    EXPECT_TRUE(warm_metrics.hasTraceSource());
    EXPECT_EQ(warm_metrics.tracesGenerated(), 0u);
    EXPECT_EQ(warm_metrics.traceCacheHits(), 2u);
    warm.run(columns, warm_session);
    EXPECT_EQ(warm_metrics.traceCacheHits(), 2u);

    TraceCache::configureGlobal("");
    std::filesystem::remove_all(dir);
}

TEST_F(SimulateManyTest, EventScaleChangeMissesTheCache)
{
    const std::string dir =
        testing::TempDir() + "/ibp_scale_cache_test";
    std::filesystem::remove_all(dir);
    TraceCache::configureGlobal(dir);

    SuiteRunner cold({"idl"});
    EXPECT_EQ(cold.traceSourceStats().generated, 1u);

    // A different event scale changes the content address, so the
    // stale entry must not be served.
    setenv("IBP_EVENTS", "0.10", 1);
    SuiteRunner rescaled({"idl"});
    EXPECT_EQ(rescaled.traceSourceStats().generated, 1u);
    EXPECT_EQ(rescaled.traceSourceStats().cacheHits, 0u);
    EXPECT_GT(rescaled.trace("idl").size(), cold.trace("idl").size());

    TraceCache::configureGlobal("");
    std::filesystem::remove_all(dir);
}

TEST_F(SimulateManyTest, StaleV2TraceEntryRegeneratesAsV3)
{
    if (!traceMmapSupported())
        GTEST_SKIP() << "mmap traces unsupported on this platform";
    const std::string dir =
        testing::TempDir() + "/ibp_stale_v2_cache_test";
    std::filesystem::remove_all(dir);
    TraceCache::configureGlobal(dir);
    const auto columns = diverseColumns();

    SuiteRunner cold({"idl"});
    ASSERT_EQ(cold.traceSourceStats().generated, 1u);
    RunSession cold_session;
    const GridResult cold_grid = cold.run(columns, cold_session);

    // Leave the entry as the retired record-array writer would have:
    // its magic and version say v2.
    const std::string path = TraceCache::global()->pathFor(
        benchmarkTraceCacheKey("idl"));
    const auto readMagic = [&path]() {
        std::ifstream in(path, std::ios::binary);
        std::string magic(8, '\0');
        in.read(magic.data(), 8);
        return magic;
    };
    ASSERT_EQ(readMagic(), std::string("IBPMAP3\0", 8));
    {
        std::fstream out(path,
                         std::ios::binary | std::ios::in | std::ios::out);
        out.seekp(6);
        out.put('2');
        const std::uint32_t v2_version = 2;
        out.seekp(8);
        out.write(reinterpret_cast<const char *>(&v2_version), 4);
    }
    ASSERT_EQ(readMagic(), std::string("IBPMAP2\0", 8));

    // The stale entry is a miss: the trace is regenerated, the entry
    // rewritten as v3, and the grid matches the cold run exactly.
    SuiteRunner stale({"idl"});
    RunSession stale_session;
    RunMetrics stale_metrics;
    stale_session.metrics = &stale_metrics;
    const GridResult stale_grid = stale.run(columns, stale_session);
    EXPECT_EQ(stale_metrics.tracesGenerated(), 1u);
    EXPECT_EQ(stale_metrics.traceCacheHits(), 0u);
    EXPECT_EQ(readMagic(), std::string("IBPMAP3\0", 8));
    expectSameGrid(cold, columns, cold_grid, stale_grid);

    // And the rewritten entry serves the next run zero-copy.
    SuiteRunner warm({"idl"});
    EXPECT_EQ(warm.traceSourceStats().generated, 0u);
    EXPECT_EQ(warm.traceSourceStats().mmapHits, 1u);

    TraceCache::configureGlobal("");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ibp
