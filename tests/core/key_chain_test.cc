/**
 * @file
 * Tests of the hashed full-precision keys (section 3's exact-path
 * tables): makeHashedKey() walks two FNV-1a chains in one loop and
 * must equal the two separate fnv1a64() chains word for word, and a
 * sweep kernel's prefix-chained keys (SweepHistoryGroup key chains)
 * must equal PatternBuilder::buildKey() over the same history buffer
 * at every record, for every path length, address recipe and
 * history-sharing mode - including when a branch of another history
 * set asks within the same history version.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/key.hh"
#include "core/pattern.hh"
#include "core/sweep_kernel.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_cache.hh"
#include "util/rng.hh"

namespace ibp {
namespace {

TEST(HashedKey, OneLoopEqualsTwoSeparateChains)
{
    constexpr std::uint64_t seedA = 0xcbf29ce484222325ULL;
    constexpr std::uint64_t seedB = 0x84222325cbf29ce4ULL;
    Rng rng(0x5eedULL);
    std::vector<std::uint64_t> words(66);
    for (unsigned count = 0; count <= 66; ++count) {
        for (int round = 0; round < 8; ++round) {
            for (auto &word : words)
                word = rng.next();
            const Key key = makeHashedKey(words.data(), count);
            EXPECT_EQ(key.lo, fnv1a64(words.data(), count, seedA))
                << "n=" << count;
            EXPECT_EQ(key.hi, fnv1a64(words.data(), count, seedB))
                << "n=" << count;
        }
    }
    EXPECT_EQ(makeHashedKey(words.data(), 0), seedHashedKey());
}

TEST(HashedKey, PrefixStatesExtendToTheFullKey)
{
    Rng rng(7);
    std::vector<std::uint64_t> words(20);
    for (auto &word : words)
        word = rng.next();
    Key state = seedHashedKey();
    for (unsigned count = 1; count <= words.size(); ++count) {
        state = extendHashedKey(state, words[count - 1]);
        EXPECT_EQ(state, makeHashedKey(words.data(), count));
    }
}

class KeyChainTest : public ::testing::Test
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

/** Every full-precision recipe the differential binds per group:
 *  the fig09 path lengths under each address recipe (fig07's h). */
std::vector<PatternSpec>
fullPrecisionSpecs()
{
    std::vector<PatternSpec> specs;
    for (const bool address : {true, false}) {
        for (const unsigned sharing : {2u, 9u, 32u}) {
            // Without the address the sharing h is ignored; bind it
            // anyway so those variants land on one chain.
            for (const unsigned p : {0u, 1u, 3u, 6u, 9u, 12u, 15u, 18u}) {
                PatternSpec spec;
                spec.precision = PrecisionMode::Full;
                spec.pathLength = p;
                spec.tableSharing = sharing;
                spec.includeBranchAddress = address;
                specs.push_back(spec);
            }
        }
    }
    return specs;
}

TEST_F(KeyChainTest, ChainedKeysEqualBuildKeyAtEveryRecord)
{
    SweepGroupSignature per_address;
    per_address.sharingBits = 2;
    SweepGroupSignature global;
    global.sharingBits = 32;
    SweepGroupSignature target_and_address;
    target_and_address.sharingBits = 32;
    target_and_address.targetAndAddress = true;
    const std::vector<SweepGroupSignature> signatures = {
        per_address, global, target_and_address};
    const std::vector<PatternSpec> specs = fullPrecisionSpecs();

    SuiteRunner runner({"idl", "perl", "self"});
    for (const auto &name : runner.benchmarks()) {
        SweepKernel kernel;
        struct Bound
        {
            SweepKernel::Binding binding;
            PatternBuilder reference;
        };
        std::vector<Bound> bound;
        for (const auto &signature : signatures) {
            for (const auto &spec : specs)
                bound.push_back({kernel.bind(signature, spec),
                                 PatternBuilder(spec)});
        }
        kernel.finalize();

        const Trace &trace = runner.trace(name);
        Addr other_pc = 0;
        std::size_t checked = 0;
        for (const BranchRecord &record : trace) {
            if (record.kind == BranchKind::Conditional) {
                kernel.observeConditional(record.pc, record.taken,
                                          record.target);
                continue;
            }
            if (!record.isPredictedIndirect())
                continue;
            // Every variant is first asked for a branch of (usually)
            // another history set and address, in the same history
            // version: the chains must not serve this branch that
            // branch's prefixes.
            for (auto &[binding, reference] : bound) {
                if (other_pc == 0)
                    break;
                SweepHistoryGroup &group = *binding.group;
                ASSERT_EQ(binding.variant->laneKey(other_pc, group),
                          reference.buildKey(other_pc,
                                             group.buffer(other_pc)))
                    << name << " other pc, "
                    << reference.spec().describe();
            }
            for (auto &[binding, reference] : bound) {
                SweepHistoryGroup &group = *binding.group;
                SweepKeyVariant &variant = *binding.variant;
                const Key expected =
                    reference.buildKey(record.pc,
                                       group.buffer(record.pc));
                ASSERT_EQ(variant.key(record.pc, group), expected)
                    << name << " record " << checked << ", "
                    << reference.spec().describe();
                ASSERT_EQ(variant.laneKey(record.pc, group), expected)
                    << name << " record " << checked << ", "
                    << reference.spec().describe();
            }
            kernel.commit(record.pc, record.target);
            other_pc = record.pc;
            ++checked;
        }
        EXPECT_GT(checked, 1000u) << name;
    }
}

} // namespace
} // namespace ibp
