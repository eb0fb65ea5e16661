/**
 * @file
 * Cache-key completeness tests of the daemon's RunRequest: the
 * coalescing signature must differ whenever ANY artifact-affecting
 * knob differs (slug, quick, and every field of the RunConfig the
 * job runs under: event scale, fault-injection spec, retry policy),
 * and only then - two requests that differ in priority, accumulated
 * rejects, or git sha still share one execution. The historical bug
 * this pins down: signature() used to fold in only slug+quick, so a
 * request at IBP_EVENTS=0.05 could be served another client's
 * full-scale cells. Compatibility is a build question only: the
 * config travels with the request.
 */

#include <gtest/gtest.h>

#include "serve/protocol.hh"

namespace ibp {
namespace {

RunRequest
baseRequest()
{
    RunConfig config;
    config.eventScale = 0.05;
    RunRequest request = makeRunRequest("fig17", true, config);
    request.priority = 0;
    request.rejects = 0;
    request.gitSha = "abc1234";
    return request;
}

TEST(RequestKeyTest, EqualRequestsCoalesce)
{
    EXPECT_EQ(baseRequest().signature(), baseRequest().signature());
}

TEST(RequestKeyTest, EveryArtifactKnobSplitsTheSignature)
{
    const std::string base = baseRequest().signature();

    RunRequest mutated = baseRequest();
    mutated.slug = "fig18";
    EXPECT_NE(mutated.signature(), base);

    mutated = baseRequest();
    mutated.quick = false;
    EXPECT_NE(mutated.signature(), base);

    // The knob of the original coalescing bug: event scale shapes
    // every counter in the artifact, so requests differing only here
    // must NEVER share a result.
    mutated = baseRequest();
    mutated.config.eventScale = 1.0;
    EXPECT_NE(mutated.signature(), base);

    mutated = baseRequest();
    mutated.config.faults =
        FaultInjector::parse("sim:0.5,seed=11").value();
    EXPECT_NE(mutated.signature(), base);

    // The retry policy decides whether a faulted cell stays failed.
    mutated = baseRequest();
    mutated.config.retry.maxAttempts = 1;
    EXPECT_NE(mutated.signature(), base);

    mutated = baseRequest();
    mutated.config.retry.cellDeadlineSeconds = 2.0;
    EXPECT_NE(mutated.signature(), base);

    mutated = baseRequest();
    mutated.config.retry.poisonThreshold = 5;
    EXPECT_NE(mutated.signature(), base);
}

TEST(RequestKeyTest, TinyScaleDifferencesStillSplit)
{
    // Shortest round-trip rendering: any double that compares
    // unequal renders differently, so near-identical scales cannot
    // alias.
    RunRequest a = baseRequest();
    RunRequest b = baseRequest();
    a.config.eventScale = 0.1;
    b.config.eventScale = 0.1 + 1e-15;
    EXPECT_NE(a.signature(), b.signature());
    EXPECT_NE(a.journalStem(), b.journalStem());
}

TEST(RequestKeyTest, NonArtifactKnobsStillCoalesce)
{
    const std::string base = baseRequest().signature();

    RunRequest mutated = baseRequest();
    mutated.priority = 7;
    EXPECT_EQ(mutated.signature(), base);

    mutated = baseRequest();
    mutated.rejects = 3;
    EXPECT_EQ(mutated.signature(), base);

    // The git sha belongs to the compatibility check (which knows
    // about unknown shas), not the coalescing key.
    mutated = baseRequest();
    mutated.gitSha = "fff9999";
    EXPECT_EQ(mutated.signature(), base);
}

TEST(RequestKeyTest, OnlyTheBuildIsCompared)
{
    // A config the server does not share is not a reason to refuse:
    // the server runs the request's config.
    RunRequest client = baseRequest();
    client.config.eventScale = 1.0;
    client.config.faults = FaultInjector::parse("serve.io:0.2").value();
    client.config.retry.maxAttempts = 1;
    EXPECT_EQ(client.incompatibilityWith("abc1234"), "");

    client = baseRequest();
    client.gitSha = "def5678";
    EXPECT_NE(client.incompatibilityWith("abc1234").find("build"),
              std::string::npos);
}

TEST(RequestKeyTest, UnknownShasAreCompatible)
{
    RunRequest client = baseRequest();
    client.gitSha = "unknown";
    EXPECT_EQ(client.incompatibilityWith("abc1234"), "");
    client.gitSha = "";
    EXPECT_EQ(client.incompatibilityWith("abc1234"), "");
    client.gitSha = "abc1234";
    EXPECT_EQ(client.incompatibilityWith("unknown"), "");
    EXPECT_EQ(client.incompatibilityWith(""), "");
}

TEST(RequestKeyTest, ConfigSurvivesTheWire)
{
    RunRequest request = baseRequest();
    request.config.faults =
        FaultInjector::parse("sim:0.25,seed=7").value();
    request.config.retry.maxAttempts = 1;
    request.config.retry.cellDeadlineSeconds = 0.5;
    const auto decoded = RunRequest::fromJson(request.toJson());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().config.faults.spec(), "sim:0.25,seed=7");
    EXPECT_EQ(decoded.value().config.retry.maxAttempts, 1u);
    EXPECT_EQ(decoded.value().config.retry.cellDeadlineSeconds, 0.5);
    EXPECT_EQ(decoded.value().signature(), request.signature());
    EXPECT_EQ(decoded.value().journalStem(), request.journalStem());
}

TEST(RequestKeyTest, JournalStemsSeparateConfigs)
{
    // Concurrent jobs of one slug under different configs must never
    // share a checkpoint journal.
    RunRequest a = baseRequest();
    RunRequest b = baseRequest();
    b.config.retry.maxAttempts = 1;
    EXPECT_NE(a.journalStem(), b.journalStem());
    EXPECT_EQ(a.journalStem().rfind("fig17-quick-", 0), 0u);
    b = baseRequest();
    b.priority = 3;
    EXPECT_EQ(a.journalStem(), b.journalStem());
}

} // namespace
} // namespace ibp
