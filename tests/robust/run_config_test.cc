/**
 * @file
 * Tests of RunConfig, the one value that carries the knobs shaping a
 * run's result: its reading of the environment (quick scale, clamps,
 * garbage), its wire form (round trip, validation of hostile input),
 * and how SuiteRunner honours it (trace scale, trace-cache and
 * result-store keys).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "robust/run_config.hh"
#include "sim/result_store.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

namespace ibp {
namespace {

const char *const kKnobs[] = {"IBP_EVENTS",         "IBP_FAULT_INJECT",
                              "IBP_MAX_ATTEMPTS",   "IBP_CELL_DEADLINE",
                              "IBP_POISON_THRESHOLD"};

class RunConfigTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (const char *knob : kKnobs)
            unsetenv(knob);
    }
    void
    TearDown() override
    {
        for (const char *knob : kKnobs)
            unsetenv(knob);
    }
};

RunConfig
scaled(double scale)
{
    RunConfig config;
    config.eventScale = scale;
    return config;
}

TEST_F(RunConfigTest, EventScaleComesFromTheEnvironmentOrQuick)
{
    EXPECT_EQ(RunConfig::fromEnvironment(false).eventScale, 1.0);
    EXPECT_EQ(RunConfig::fromEnvironment(true).eventScale, 0.25);
    // An explicit scale wins over --quick, and is read afresh on
    // every call (nothing is cached for the life of the process).
    setenv("IBP_EVENTS", "0.05", 1);
    EXPECT_NEAR(RunConfig::fromEnvironment(false).eventScale, 0.05,
                1e-12);
    EXPECT_NEAR(RunConfig::fromEnvironment(true).eventScale, 0.05,
                1e-12);
    setenv("IBP_EVENTS", "bogus", 1);
    EXPECT_EQ(RunConfig::fromEnvironment(true).eventScale, 1.0);
    setenv("IBP_EVENTS", "5000", 1);
    EXPECT_EQ(RunConfig::fromEnvironment(false).eventScale, 100.0);
    setenv("IBP_EVENTS", "0.0001", 1);
    EXPECT_EQ(RunConfig::fromEnvironment(false).eventScale, 0.01);
}

TEST_F(RunConfigTest, RetryKnobsAreClampedAndValidated)
{
    setenv("IBP_MAX_ATTEMPTS", "7", 1);
    setenv("IBP_CELL_DEADLINE", "2.5", 1);
    setenv("IBP_POISON_THRESHOLD", "4", 1);
    RetryPolicy policy = RunConfig::fromEnvironment(false).retry;
    EXPECT_EQ(policy.maxAttempts, 7u);
    EXPECT_DOUBLE_EQ(policy.cellDeadlineSeconds, 2.5);
    EXPECT_EQ(policy.poisonThreshold, 4u);
    // Counts read as integers.
    setenv("IBP_MAX_ATTEMPTS", "7.5", 1);
    EXPECT_EQ(RunConfig::fromEnvironment(false).retry.maxAttempts, 7u);

    // Garbage and out-of-range values keep the defaults.
    setenv("IBP_MAX_ATTEMPTS", "0", 1);
    setenv("IBP_CELL_DEADLINE", "garbage", 1);
    setenv("IBP_POISON_THRESHOLD", "1000", 1);
    policy = RunConfig::fromEnvironment(false).retry;
    EXPECT_EQ(policy.maxAttempts, RetryPolicy().maxAttempts);
    EXPECT_DOUBLE_EQ(policy.cellDeadlineSeconds, 0.0);
    EXPECT_EQ(policy.poisonThreshold, RetryPolicy().poisonThreshold);
}

TEST_F(RunConfigTest, FaultSpecIsParsedAndMalformedIsFatal)
{
    EXPECT_FALSE(RunConfig::fromEnvironment(false).faults.armed());
    setenv("IBP_FAULT_INJECT", "sim:0.5,seed=3", 1);
    const RunConfig config = RunConfig::fromEnvironment(false);
    EXPECT_TRUE(config.faults.armedFor("sim"));
    EXPECT_EQ(config.faults.spec(), "sim:0.5,seed=3");
    setenv("IBP_FAULT_INJECT", "sim:often", 1);
    EXPECT_DEATH(RunConfig::fromEnvironment(false), "IBP_FAULT_INJECT");
}

TEST_F(RunConfigTest, JsonRoundTripKeepsEveryField)
{
    RunConfig config;
    config.eventScale = 0.1 + 1e-15;
    config.faults = FaultInjector::parse("sim:0.3,seed=9").value();
    config.retry.maxAttempts = 1;
    config.retry.cellDeadlineSeconds = 0.75;
    config.retry.poisonThreshold = 5;
    const auto decoded =
        RunConfig::fromJson(Json::parse(config.toJson().dump()));
    ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
    EXPECT_EQ(decoded.value().eventScale, config.eventScale);
    EXPECT_EQ(decoded.value().faults.spec(), "sim:0.3,seed=9");
    EXPECT_EQ(decoded.value().retry.maxAttempts, 1u);
    EXPECT_EQ(decoded.value().retry.cellDeadlineSeconds, 0.75);
    EXPECT_EQ(decoded.value().retry.poisonThreshold, 5u);
    EXPECT_EQ(decoded.value().toJson().dump(), config.toJson().dump());
}

TEST_F(RunConfigTest, FromJsonRejectsMalformedInput)
{
    const auto rejects = [](const char *field, Json value) {
        Json json = RunConfig().toJson();
        json.set(field, std::move(value));
        const auto decoded = RunConfig::fromJson(json);
        return !decoded.ok() && !decoded.error().retryable();
    };
    EXPECT_TRUE(rejects("fault_inject", "sim:nope"));
    EXPECT_TRUE(rejects("fault_inject", 3));
    EXPECT_TRUE(rejects("event_scale", 0.0));
    EXPECT_TRUE(rejects("event_scale", -1.0));
    EXPECT_TRUE(rejects("event_scale", 1000.0));
    EXPECT_TRUE(rejects("event_scale", "0.25"));
    EXPECT_TRUE(rejects("max_attempts", 0));
    EXPECT_TRUE(rejects("max_attempts", 1.5));
    EXPECT_TRUE(rejects("max_attempts", -4294967295.0));
    EXPECT_TRUE(rejects("cell_deadline", -1.0));
    EXPECT_TRUE(rejects("poison_threshold", 101));
    EXPECT_FALSE(RunConfig::fromJson(Json::object()).ok());
    EXPECT_FALSE(RunConfig::fromJson(Json(1.0)).ok());
    EXPECT_TRUE(RunConfig::fromJson(RunConfig().toJson()).ok());
}

TEST_F(RunConfigTest, RunnerTracesFollowTheConfigScale)
{
    const SuiteRunner small({"idl"}, false, scaled(0.05));
    const SuiteRunner large({"idl"}, false, scaled(0.1));
    EXPECT_EQ(small.config().eventScale, 0.05);
    EXPECT_EQ(small.trace("idl").size(),
              generateBenchmarkTrace("idl", false, 0.05).size());
    EXPECT_LT(small.trace("idl").size(), large.trace("idl").size());

    // Same effective scale, same cache key - whether the scale came
    // from the environment or from a config value.
    setenv("IBP_EVENTS", "0.05", 1);
    EXPECT_EQ(benchmarkTraceCacheKey("idl"),
              benchmarkTraceCacheKey("idl", false, 0.05));
    EXPECT_NE(benchmarkTraceCacheKey("idl"),
              benchmarkTraceCacheKey("idl", false, 0.1));
}

TEST_F(RunConfigTest, RunnerStoreKeysFollowTheConfigScale)
{
    // Two runners at different scales share one store with the
    // environment's scale unset: each must key its cells by its own
    // trace scale, so the second runner misses every cell the first
    // one stored.
    const std::string dir =
        testing::TempDir() + "/ibp_run_config_store_test";
    std::filesystem::remove_all(dir);
    ResultStore::configureGlobal(dir);
    const std::vector<SweepColumn> columns = {
        btbColumn("btb", TableSpec::setAssoc(64, 2), true)};
    const auto storeStats = [&](double scale) {
        const SuiteRunner runner({"idl", "gcc"}, false, scaled(scale));
        RunMetrics metrics;
        const GridResult grid = runner.run(columns, &metrics);
        EXPECT_EQ(grid.presentCount("btb", {"idl", "gcc"}), 2u);
        return metrics.resultStore();
    };
    EXPECT_EQ(storeStats(0.05).stores, 2u);
    const ResultStoreStats other = storeStats(0.1);
    EXPECT_EQ(other.hits, 0u);
    EXPECT_EQ(other.misses, 2u);
    EXPECT_EQ(storeStats(0.05).hits, 2u);

    const ResultStore store(dir);
    for (const char *name : {"idl", "gcc"}) {
        const std::string key = ResultStore::cellKey(
            benchmarkTraceCacheKey(name, false, 0.05),
            columns[0].specHash);
        EXPECT_EQ(store.load(key).status, ResultStore::LoadStatus::Hit)
            << name;
    }
    ResultStore::configureGlobal("");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ibp
