/**
 * @file
 * Cache-key completeness tests of the daemon's RunRequest: the
 * coalescing signature must differ whenever ANY artifact-affecting
 * knob differs (slug, quick, event scale, threads, table
 * implementation, fault-injection spec), and only then - two
 * requests that differ in priority, accumulated rejects, or git sha
 * still share one execution. The historical bug this pins down:
 * signature() used to fold in only slug+quick, so a request at
 * IBP_EVENTS=0.05 could be served another client's full-scale cells.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "serve/protocol.hh"

namespace ibp {
namespace {

RunRequest
baseRequest()
{
    RunRequest request;
    request.slug = "fig17";
    request.quick = true;
    request.priority = 0;
    request.rejects = 0;
    request.eventScale = 0.05;
    request.threads = 4;
    request.gitSha = "abc1234";
    request.faultSpec = "";
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
    mutated.eventScale = 1.0;
    EXPECT_NE(mutated.signature(), base);

    mutated = baseRequest();
    mutated.threads = 8;
    EXPECT_NE(mutated.signature(), base);

    mutated = baseRequest();
    mutated.faultSpec = "sim:0.5,seed=11";
    EXPECT_NE(mutated.signature(), base);
}

TEST(RequestKeyTest, TinyScaleDifferencesStillSplit)
{
    // %.17g rendering: any double that compares unequal renders
    // differently, so near-identical scales cannot alias.
    RunRequest a = baseRequest();
    RunRequest b = baseRequest();
    a.eventScale = 0.1;
    b.eventScale = 0.1 + 1e-15;
    EXPECT_NE(a.signature(), b.signature());
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

TEST(RequestKeyTest, CompatibilityChecksEveryKnob)
{
    const RunRequest server = baseRequest();

    EXPECT_EQ(baseRequest().incompatibilityWith(server), "");

    RunRequest client = baseRequest();
    client.eventScale = 1.0;
    EXPECT_NE(client.incompatibilityWith(server).find("event scale"),
              std::string::npos);

    client = baseRequest();
    client.threads = 8;
    EXPECT_NE(client.incompatibilityWith(server).find("thread"),
              std::string::npos);

    client = baseRequest();
    client.faultSpec = "serve.io:0.2";
    EXPECT_NE(
        client.incompatibilityWith(server).find("fault injection"),
        std::string::npos);

    client = baseRequest();
    client.gitSha = "def5678";
    EXPECT_NE(client.incompatibilityWith(server).find("build"),
              std::string::npos);
}

TEST(RequestKeyTest, UnknownShasAreCompatible)
{
    RunRequest client = baseRequest();
    RunRequest server = baseRequest();
    client.gitSha = "unknown";
    EXPECT_EQ(client.incompatibilityWith(server), "");
    client.gitSha = "";
    EXPECT_EQ(client.incompatibilityWith(server), "");
    client.gitSha = "abc1234";
    server.gitSha = "unknown";
    EXPECT_EQ(client.incompatibilityWith(server), "");
}

TEST(RequestKeyTest, FaultSpecSurvivesTheWire)
{
    RunRequest request = baseRequest();
    request.faultSpec = "sim:0.25,seed=7";
    const auto decoded = RunRequest::fromJson(request.toJson());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().faultSpec, request.faultSpec);
    EXPECT_EQ(decoded.value().signature(), request.signature());
}

TEST(RequestKeyTest, MakeRunRequestSnapshotsFaultInjection)
{
    const char *saved = std::getenv("IBP_FAULT_INJECT");
    const std::string restore = saved ? saved : "";

    setenv("IBP_FAULT_INJECT", "sim:0.5,seed=3", 1);
    EXPECT_EQ(makeRunRequest("fig02", true).faultSpec,
              "sim:0.5,seed=3");

    unsetenv("IBP_FAULT_INJECT");
    EXPECT_EQ(makeRunRequest("fig02", true).faultSpec, "");

    if (saved)
        setenv("IBP_FAULT_INJECT", restore.c_str(), 1);
}

} // namespace
} // namespace ibp
