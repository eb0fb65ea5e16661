/**
 * @file
 * Tests of the deterministic fault injector: spec grammar,
 * reproducibility of decisions, and the transient/permanent retry
 * semantics the recovery machinery depends on.
 */

#include <gtest/gtest.h>

#include <string>

#include "robust/fault_injection.hh"

namespace ibp {
namespace {

TEST(FaultSpecTest, ParsesSitesKindsAndSeed)
{
    const auto parsed =
        FaultInjector::parse("sim:0.25,trace:0.5:permanent,seed=42");
    ASSERT_TRUE(parsed.ok());
    const FaultInjector &injector = parsed.value();
    EXPECT_TRUE(injector.armed());
    EXPECT_EQ(injector.seed(), 42u);
    ASSERT_EQ(injector.sites().size(), 2u);
    EXPECT_EQ(injector.sites()[0].site, "sim");
    EXPECT_DOUBLE_EQ(injector.sites()[0].probability, 0.25);
    EXPECT_EQ(injector.sites()[0].kind, ErrorKind::Transient);
    EXPECT_EQ(injector.sites()[1].site, "trace");
    EXPECT_EQ(injector.sites()[1].kind, ErrorKind::Permanent);
}

TEST(FaultSpecTest, RejectsBadGrammar)
{
    EXPECT_FALSE(FaultInjector::parse("sim").ok());
    EXPECT_FALSE(FaultInjector::parse("sim:nope").ok());
    EXPECT_FALSE(FaultInjector::parse("sim:1.5").ok());
    EXPECT_FALSE(FaultInjector::parse("sim:-0.1").ok());
    EXPECT_FALSE(FaultInjector::parse("sim:0.5:often").ok());
    EXPECT_FALSE(FaultInjector::parse("seed=abc").ok());
}

TEST(FaultSpecTest, EmptySpecIsDisarmed)
{
    const auto parsed = FaultInjector::parse("");
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed.value().armed());
    // A disarmed injector never throws.
    parsed.value().check("sim", "anything", 1);
}

TEST(FaultInjectorTest, DecisionsAreDeterministic)
{
    const FaultInjector a =
        FaultInjector::parse("sim:0.5,seed=7").value();
    const FaultInjector b =
        FaultInjector::parse("sim:0.5,seed=7").value();
    for (int i = 0; i < 200; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        EXPECT_EQ(a.wouldFail("sim", key, 1),
                  b.wouldFail("sim", key, 1));
    }
}

TEST(FaultInjectorTest, SeedChangesDecisions)
{
    const FaultInjector a =
        FaultInjector::parse("sim:0.5,seed=1").value();
    const FaultInjector b =
        FaultInjector::parse("sim:0.5,seed=2").value();
    int differing = 0;
    for (int i = 0; i < 200; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        if (a.wouldFail("sim", key, 1) != b.wouldFail("sim", key, 1))
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, ProbabilityIsRoughlyHonoured)
{
    const FaultInjector injector =
        FaultInjector::parse("sim:0.3").value();
    int failures = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        if (injector.wouldFail("sim", "k" + std::to_string(i), 1))
            ++failures;
    }
    const double rate = static_cast<double>(failures) / trials;
    EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(FaultInjectorTest, TransientFaultsCanClearOnRetry)
{
    const FaultInjector injector =
        FaultInjector::parse("sim:0.5").value();
    // With per-attempt re-rolls, some key that fails on attempt 1
    // must pass on a later attempt (p(fail 5x) ~ 3% per key).
    bool cleared = false;
    for (int i = 0; i < 100 && !cleared; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        if (!injector.wouldFail("sim", key, 1))
            continue;
        for (unsigned attempt = 2; attempt <= 5; ++attempt) {
            if (!injector.wouldFail("sim", key, attempt)) {
                cleared = true;
                break;
            }
        }
    }
    EXPECT_TRUE(cleared);
}

TEST(FaultInjectorTest, PermanentFaultsNeverClear)
{
    const FaultInjector injector =
        FaultInjector::parse("sim:0.5:permanent").value();
    for (int i = 0; i < 100; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        const bool first = injector.wouldFail("sim", key, 1);
        for (unsigned attempt = 2; attempt <= 5; ++attempt)
            EXPECT_EQ(injector.wouldFail("sim", key, attempt), first);
    }
}

TEST(FaultInjectorTest, CheckThrowsClassifiedError)
{
    const FaultInjector injector =
        FaultInjector::parse("sim:1.0:permanent").value();
    try {
        injector.check("sim", "any", 1);
        FAIL() << "check() did not throw";
    } catch (const RunException &exception) {
        EXPECT_EQ(exception.error().kind, ErrorKind::Permanent);
        EXPECT_NE(exception.error().message.find("injected"),
                  std::string::npos);
    }
    // Unarmed sites pass untouched.
    injector.check("artifact", "any", 1);
}

TEST(FaultSpecTest, ParsesCrashAndHangKinds)
{
    const auto parsed =
        FaultInjector::parse("sim:0.05:crash,sim:0.02:hang,seed=3");
    ASSERT_TRUE(parsed.ok());
    const FaultInjector &injector = parsed.value();
    ASSERT_EQ(injector.sites().size(), 2u);
    EXPECT_EQ(injector.sites()[0].action, FaultAction::Crash);
    EXPECT_EQ(injector.sites()[0].kind, ErrorKind::Transient);
    EXPECT_EQ(injector.sites()[1].action, FaultAction::Hang);
    EXPECT_EQ(injector.sites()[1].kind, ErrorKind::Timeout);
}

TEST(FaultInjectorTest, HangFaultsRollPerAttempt)
{
    // A hung cell is killed from outside and re-run on a fresh lane
    // with a bumped effective attempt; the injected hang must be
    // able to clear on that retry (at probability < 1) or chaos runs
    // could never complete.
    const FaultInjector injector =
        FaultInjector::parse("sim:0.5:hang,seed=9").value();
    bool cleared = false;
    for (int i = 0; i < 100 && !cleared; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        ErrorKind kind = ErrorKind::Transient;
        FaultAction action = FaultAction::Throw;
        if (!injector.wouldFail("sim", key, 1, &kind, &action))
            continue;
        EXPECT_EQ(kind, ErrorKind::Timeout);
        EXPECT_EQ(action, FaultAction::Hang);
        for (unsigned attempt = 2; attempt <= 5; ++attempt) {
            if (!injector.wouldFail("sim", key, attempt)) {
                cleared = true;
                break;
            }
        }
    }
    EXPECT_TRUE(cleared);
}

TEST(FaultInjectorDeathTest, CrashActionAbortsTheProcess)
{
    const FaultInjector injector =
        FaultInjector::parse("sim:1:crash").value();
    ErrorKind kind = ErrorKind::Permanent;
    FaultAction action = FaultAction::Throw;
    EXPECT_TRUE(injector.wouldFail("sim", "any", 1, &kind, &action));
    EXPECT_EQ(action, FaultAction::Crash);
    EXPECT_DEATH(injector.check("sim", "any", 1), "");
}

TEST(FaultInjectorTest, RemembersItsSpec)
{
    // The spec is the injector's wire form (RunConfig::toJson).
    const std::string spec = "sim:0.25,trace:0.5:permanent,seed=42";
    EXPECT_EQ(FaultInjector::parse(spec).value().spec(), spec);
    EXPECT_EQ(FaultInjector().spec(), "");
    EXPECT_FALSE(FaultInjector().armed());
}

} // namespace
} // namespace ibp
