/**
 * @file
 * Tests of the shared bench CLI (bench/common_flags.hh): the run
 * config it builds from --quick and the retry flags.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common_flags.hh"

namespace ibp {
namespace {

BenchCli
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseBenchFlags(static_cast<int>(argv.size()), argv.data());
}

class BenchFlagsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        unsetenv("IBP_EVENTS");
        unsetenv("IBP_MAX_ATTEMPTS");
    }
};

TEST_F(BenchFlagsTest, QuickShrinksTheConfigScaleWhereverItStands)
{
    EXPECT_EQ(parse({}).options.runConfig().eventScale, 1.0);
    EXPECT_EQ(parse({"--retries=2", "--quick"}).options.config->eventScale,
              0.25);
}

TEST_F(BenchFlagsTest, RetriesAreClampedToTheWireRange)
{
    EXPECT_EQ(parse({"--retries=3"}).options.config->retry.maxAttempts,
              3u);
    EXPECT_EQ(parse({"--retries=0"}).options.config->retry.maxAttempts,
              1u);
    EXPECT_EQ(parse({"--retries=500"}).options.config->retry.maxAttempts,
              100u);
    EXPECT_EQ(parse({"--retries=1e12"}).options.config->retry.maxAttempts,
              100u);
    // The flag overrides the environment.
    setenv("IBP_MAX_ATTEMPTS", "7", 1);
    EXPECT_EQ(parse({}).options.config->retry.maxAttempts, 7u);
    EXPECT_EQ(parse({"--retries=2"}).options.config->retry.maxAttempts,
              2u);
    unsetenv("IBP_MAX_ATTEMPTS");
    // What the CLI accepts, the wire accepts.
    EXPECT_TRUE(
        RunConfig::fromJson(parse({"--retries=500"}).options.config->toJson())
            .ok());
}

TEST_F(BenchFlagsTest, NonFiniteDeadlineIsRejected)
{
    EXPECT_EQ(parse({"--cell-deadline=2.5"})
                  .options.config->retry.cellDeadlineSeconds,
              2.5);
    EXPECT_DEATH(parse({"--cell-deadline=inf"}), "invalid value");
    EXPECT_DEATH(parse({"--cell-deadline=nan"}), "invalid value");
}

} // namespace
} // namespace ibp
