/**
 * @file
 * The seed's bit-by-bit pattern interleaving (Figure 15), kept as the
 * test-only oracle for PatternBuilder's precomputed scatter-mask
 * assembly and its fast paths (assembleFromCompressed,
 * advancePattern).
 */

#ifndef IBP_TESTS_ORACLE_REFERENCE_PATTERN_HH
#define IBP_TESTS_ORACLE_REFERENCE_PATTERN_HH

#include <array>
#include <cstdint>

#include "core/pattern.hh"
#include "util/logging.hh"

namespace ibp {

/**
 * The limited-precision pattern of @p history under @p spec, built
 * the way the seed built it: compress every target (the public
 * PatternBuilder::compressTarget), then place the pattern bit by bit
 * with an explicit round/slot schedule. Covers the interleaved
 * compressors (BitSelect, FoldXor); ShiftXor is not interleaved.
 */
inline std::uint64_t
referenceInterleavedPattern(const PatternSpec &spec,
                            const HistoryBuffer &history)
{
    const PatternBuilder builder(spec);
    const unsigned bits = spec.resolvedBitsPerTarget();
    const unsigned p = spec.pathLength;
    const unsigned total = bits * p;

    std::array<std::uint64_t, 64> compressed{};
    IBP_ASSERT(p <= compressed.size(), "path length %u", p);
    for (unsigned i = 0; i < p; ++i)
        compressed[i] = builder.compressTarget(history.at(i));

    if (spec.interleave == InterleaveKind::Concat) {
        std::uint64_t pattern = 0;
        for (unsigned i = 0; i < p; ++i)
            pattern |= compressed[i] << (i * bits);
        return pattern;
    }

    std::array<unsigned, 64> order{};
    switch (spec.interleave) {
      case InterleaveKind::Straight:
        for (unsigned q = 0; q < p; ++q)
            order[q] = q;
        break;
      case InterleaveKind::Reverse:
        for (unsigned q = 0; q < p; ++q)
            order[q] = p - 1 - q;
        break;
      case InterleaveKind::PingPong:
        for (unsigned q = 0; q < p; ++q)
            order[q] = (q % 2 == 0) ? q / 2 : p - 1 - q / 2;
        break;
      case InterleaveKind::Concat:
        panic("unreachable interleave kind");
    }

    std::uint64_t pattern = 0;
    for (unsigned j = 0; j < total; ++j) {
        const unsigned round = j / p;
        const unsigned slot = j % p;
        const std::uint64_t bit =
            (compressed[order[slot]] >> round) & 1;
        pattern |= bit << j;
    }
    return pattern;
}

} // namespace ibp

#endif // IBP_TESTS_ORACLE_REFERENCE_PATTERN_HH
