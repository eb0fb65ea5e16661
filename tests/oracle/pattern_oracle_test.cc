/**
 * @file
 * Differential tests of PatternBuilder's limited-precision assembly
 * against the seed's bit-by-bit interleaving
 * (tests/oracle/reference_pattern.hh). For every interleave kind,
 * both interleaved compressors and every path length, the
 * precomputed scatter-mask assembly, the shared-compression fast
 * path (assembleFromCompressed) and the incremental shift
 * (advancePattern) must produce exactly the oracle's pattern for the
 * same history.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/pattern.hh"
#include "oracle/reference_pattern.hh"

namespace ibp {
namespace {

/** Every spec the sweep covers: auto b, plus the widest explicit b
 *  that still fits the 54-bit pattern (a second mask geometry). */
std::vector<PatternSpec>
patternSpecs()
{
    std::vector<PatternSpec> specs;
    for (const InterleaveKind interleave :
         {InterleaveKind::Concat, InterleaveKind::Straight,
          InterleaveKind::Reverse, InterleaveKind::PingPong}) {
        for (const CompressorKind compressor :
             {CompressorKind::BitSelect, CompressorKind::FoldXor}) {
            for (unsigned p = 1; p <= 24; ++p) {
                for (const unsigned b : {0u, std::min(32u, 54u / p)}) {
                    PatternSpec spec;
                    spec.pathLength = p;
                    spec.bitsPerTarget = b;
                    spec.interleave = interleave;
                    spec.compressor = compressor;
                    spec.keyMix = KeyMix::Xor;
                    specs.push_back(spec);
                }
            }
        }
    }
    return specs;
}

std::string
describe(const PatternSpec &spec)
{
    return toString(spec.interleave) + '/' +
           toString(spec.compressor) + ' ' + spec.describe();
}

TEST(PatternOracleTest, AssemblyMatchesBitByBitInterleaving)
{
    std::mt19937_64 rng(0x9a77e12);
    for (const PatternSpec &spec : patternSpecs()) {
        const PatternBuilder builder(spec);
        HistoryBuffer history(spec.pathLength);
        for (int round = 0; round < 64; ++round) {
            history.push(static_cast<Addr>(rng()));
            ASSERT_EQ(builder.assemblePattern(history),
                      referenceInterleavedPattern(spec, history))
                << describe(spec) << " round " << round;
        }
    }
}

TEST(PatternOracleTest, FastPathsMatchBitByBitInterleaving)
{
    std::mt19937_64 rng(0xfa57);
    unsigned fast = 0;
    unsigned incremental = 0;
    for (const PatternSpec &spec : patternSpecs()) {
        const PatternBuilder builder(spec);
        const unsigned p = spec.pathLength;
        const unsigned b = spec.resolvedBitsPerTarget();
        fast += builder.fastAssemblyEligible() ? 1 : 0;
        incremental += builder.incrementalAdvanceEligible() ? 1 : 0;

        HistoryBuffer history(p);
        std::uint64_t advanced = 0;
        for (int round = 0; round < 64; ++round) {
            const Addr target = static_cast<Addr>(rng());
            history.push(target);
            const std::uint64_t oracle =
                referenceInterleavedPattern(spec, history);

            if (builder.incrementalAdvanceEligible()) {
                advanced = builder.advancePattern(advanced, target);
                ASSERT_EQ(advanced, oracle)
                    << describe(spec) << " advance round " << round;
            }
            if (builder.fastAssemblyEligible()) {
                // Entries wider than b, as a shared cache built for
                // a larger b holds them: only the low b bits count.
                std::vector<std::uint64_t> compressed(p);
                for (unsigned i = 0; i < p; ++i) {
                    compressed[i] = bitsRange(history.at(i),
                                              spec.lowBit,
                                              std::min(b + 3, 32u));
                }
                ASSERT_EQ(builder.assembleFromCompressed(
                              compressed.data()),
                          oracle)
                    << describe(spec) << " compressed round " << round;
            }
        }
    }
    // Both fast paths were really exercised.
    EXPECT_GT(fast, 0u);
    EXPECT_GT(incremental, 0u);
}

} // namespace
} // namespace ibp
