/**
 * @file
 * Tests of the recoverable-error model and the retry machinery:
 * Result semantics, error classification, attempt accounting, and
 * the environment policy overrides.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "robust/error.hh"
#include "robust/retry.hh"

namespace ibp {
namespace {

TEST(RunErrorTest, KindsAndRetryability)
{
    EXPECT_TRUE(RunError::transient("x").retryable());
    EXPECT_FALSE(RunError::permanent("x").retryable());
    EXPECT_FALSE(RunError::timeout("x").retryable());
    EXPECT_STREQ(errorKindName(ErrorKind::Transient), "transient");
    EXPECT_STREQ(errorKindName(ErrorKind::Permanent), "permanent");
    EXPECT_STREQ(errorKindName(ErrorKind::Timeout), "timeout");
}

TEST(RunErrorTest, DescribeMentionsKindAndAttempts)
{
    RunError error = RunError::transient("boom");
    error.attempts = 3;
    const std::string text = error.describe();
    EXPECT_NE(text.find("transient"), std::string::npos);
    EXPECT_NE(text.find("boom"), std::string::npos);
    EXPECT_NE(text.find("3"), std::string::npos);
}

TEST(ResultTest, ValueAndErrorAccess)
{
    const Result<int> ok(42);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);

    const Result<int> bad(RunError::permanent("nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message, "nope");
    EXPECT_THROW(bad.value(), RunException);

    const Result<void> fine;
    EXPECT_TRUE(fine.ok());
    const Result<void> broken(RunError::timeout("slow"));
    EXPECT_FALSE(broken.ok());
    EXPECT_EQ(broken.error().kind, ErrorKind::Timeout);
}

TEST(RetryTest, SucceedsFirstTry)
{
    RetryPolicy policy;
    policy.initialBackoffSeconds = 0.0;
    unsigned calls = 0;
    const auto result = runWithRetries(policy, [&](unsigned) {
        ++calls;
        return 7;
    });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value(), 7);
    EXPECT_EQ(calls, 1u);
}

TEST(RetryTest, TransientErrorsRetryUntilSuccess)
{
    RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.initialBackoffSeconds = 0.0;
    unsigned calls = 0;
    const auto result = runWithRetries(policy, [&](unsigned attempt) {
        ++calls;
        EXPECT_EQ(attempt, calls);
        if (attempt < 3)
            throw RunException(RunError::transient("later"));
        return attempt;
    });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value(), 3u);
    EXPECT_EQ(calls, 3u);
}

TEST(RetryTest, TransientExhaustionReportsAttempts)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.initialBackoffSeconds = 0.0;
    unsigned calls = 0;
    const auto result =
        runWithRetries(policy, [&](unsigned) -> int {
            ++calls;
            throw RunException(RunError::transient("always"));
        });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(result.error().attempts, 3u);
    EXPECT_EQ(result.error().kind, ErrorKind::Transient);
}

TEST(RetryTest, PermanentErrorsFailImmediately)
{
    RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.initialBackoffSeconds = 0.0;
    unsigned calls = 0;
    const auto result =
        runWithRetries(policy, [&](unsigned) -> int {
            ++calls;
            throw RunException(RunError::permanent("broken"));
        });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(result.error().kind, ErrorKind::Permanent);
}

TEST(RetryTest, TimeoutErrorsAreNotRetried)
{
    RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.initialBackoffSeconds = 0.0;
    unsigned calls = 0;
    const auto result =
        runWithRetries(policy, [&](unsigned) -> int {
            ++calls;
            throw RunException(RunError::timeout("deadline"));
        });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(calls, 1u);
}

TEST(RetryTest, ForeignExceptionsBecomePermanent)
{
    RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.initialBackoffSeconds = 0.0;
    const auto result =
        runWithRetries(policy, [&](unsigned) -> int {
            throw std::runtime_error("unclassified");
        });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, ErrorKind::Permanent);
    EXPECT_EQ(result.error().message, "unclassified");
}

TEST(RetryTest, VoidBodiesWork)
{
    RetryPolicy policy;
    policy.initialBackoffSeconds = 0.0;
    bool ran = false;
    const Result<void> result =
        runWithRetries(policy, [&](unsigned) { ran = true; });
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(ran);
}

TEST(RetryTest, BackoffGrowsAndCaps)
{
    RetryPolicy policy;
    policy.initialBackoffSeconds = 0.005;
    policy.backoffMultiplier = 4.0;
    policy.maxBackoffSeconds = 0.05;
    EXPECT_DOUBLE_EQ(policy.backoffFor(2), 0.005);
    EXPECT_DOUBLE_EQ(policy.backoffFor(3), 0.02);
    EXPECT_DOUBLE_EQ(policy.backoffFor(4), 0.05); // capped (0.08)
    EXPECT_DOUBLE_EQ(policy.backoffFor(5), 0.05);
}

} // namespace
} // namespace ibp
