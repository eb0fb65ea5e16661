#include "core/pattern.hh"

#include <algorithm>
#include <array>
#include <sstream>

#include "core/simd.hh"
#include "util/logging.hh"

namespace ibp {

std::string
toString(PrecisionMode mode)
{
    return mode == PrecisionMode::Full ? "full" : "limited";
}

std::string
toString(CompressorKind kind)
{
    switch (kind) {
      case CompressorKind::BitSelect: return "select";
      case CompressorKind::FoldXor:   return "fold";
      case CompressorKind::ShiftXor:  return "shiftxor";
    }
    return "?";
}

std::string
toString(InterleaveKind kind)
{
    switch (kind) {
      case InterleaveKind::Concat:   return "concat";
      case InterleaveKind::Straight: return "straight";
      case InterleaveKind::Reverse:  return "reverse";
      case InterleaveKind::PingPong: return "pingpong";
    }
    return "?";
}

std::string
toString(KeyMix mix)
{
    return mix == KeyMix::Concat ? "concat" : "xor";
}

unsigned
PatternSpec::resolvedBitsPerTarget() const
{
    if (precision == PrecisionMode::Full)
        return 32;
    if (bitsPerTarget != 0)
        return bitsPerTarget;
    if (pathLength == 0)
        return 0;
    // The paper's rule: the largest b such that b * p <= 24, at
    // least 1 bit per target (section 4.1).
    return std::max(1u, 24u / pathLength);
}

unsigned
PatternSpec::patternBits() const
{
    if (pathLength == 0)
        return 0;
    return resolvedBitsPerTarget() * pathLength;
}

void
PatternSpec::validate() const
{
    if (tableSharing < 2 || tableSharing > 32)
        fatal("table sharing h=%u outside [2, 32]", tableSharing);
    if (lowBit > 30)
        fatal("low bit a=%u outside [0, 30]", lowBit);
    if (precision == PrecisionMode::Limited) {
        if (pathLength > 24)
            fatal("limited-precision path length p=%u > 24", pathLength);
        const unsigned bits = patternBits();
        if (bits > 54)
            fatal("pattern of %u bits does not fit a 54-bit key", bits);
        if (keyMix == KeyMix::Concat && bits + 30 > 64)
            fatal("pattern of %u bits + 30 address bits exceeds 64",
                  bits);
    } else {
        if (pathLength > 64)
            fatal("path length p=%u unreasonably long", pathLength);
    }
}

std::string
PatternSpec::describe() const
{
    std::ostringstream out;
    out << "p=" << pathLength;
    if (precision == PrecisionMode::Full) {
        out << ",full";
    } else {
        out << ",b=" << resolvedBitsPerTarget()
            << ",a=" << lowBit
            << ',' << toString(compressor)
            << ',' << toString(interleave)
            << ",mix=" << toString(keyMix);
    }
    if (tableSharing != 2)
        out << ",h=" << tableSharing;
    if (!includeBranchAddress)
        out << ",noaddr";
    return out.str();
}

namespace {

#if IBP_X86_SIMD

[[gnu::target("bmi2")]] std::uint64_t
scatterPdep(std::uint64_t value, std::uint64_t mask)
{
    return _pdep_u64(value, mask);
}

#endif // IBP_X86_SIMD

/**
 * Deposit the low bits of @p value into the set bit positions of
 * @p mask, lowest first (PDEP semantics; hardware PDEP when the CPU
 * has BMI2 and the IBP_SIMD override allows it — core/simd.hh owns
 * both checks, so non-x86/non-GNU builds compile the portable loop
 * only). The masks here have at most b bits set, so the portable
 * loop is short and branch-light.
 */
std::uint64_t
scatterBits(std::uint64_t value, std::uint64_t mask, bool hw)
{
#if IBP_X86_SIMD
    if (hw)
        return scatterPdep(value, mask);
#else
    (void)hw;
#endif
    std::uint64_t out = 0;
    while (mask != 0) {
        const std::uint64_t bit = mask & (~mask + 1);
        if (value & 1)
            out |= bit;
        value >>= 1;
        mask ^= bit;
    }
    return out;
}

} // namespace

PatternBuilder::PatternBuilder(const PatternSpec &spec)
    : _spec(spec), _bits(spec.resolvedBitsPerTarget()),
      _scatterHw(simdScatterEnabled())
{
    _spec.validate();

    // Precompute the round-robin destination masks (see _scatter).
    // Position j of the pattern takes bit j/p of target
    // order[j % p]; inverting that per target gives a regular
    // stride-p scatter starting at the target's slot in the order.
    if (_spec.precision == PrecisionMode::Limited &&
        _spec.compressor != CompressorKind::ShiftXor &&
        _spec.interleave != InterleaveKind::Concat &&
        _spec.pathLength > 0) {
        const unsigned p = _spec.pathLength;
        _scatter.assign(p, 0);
        for (unsigned q = 0; q < p; ++q) {
            unsigned target = 0;
            switch (_spec.interleave) {
              case InterleaveKind::Straight:
                target = q;
                break;
              case InterleaveKind::Reverse:
                target = p - 1 - q;
                break;
              case InterleaveKind::PingPong:
                target = (q % 2 == 0) ? q / 2 : p - 1 - q / 2;
                break;
              case InterleaveKind::Concat:
                panic("unreachable interleave kind");
            }
            for (unsigned round = 0; round < _bits; ++round)
                _scatter[target] |= std::uint64_t{1}
                                    << (q + round * p);
        }
    }
}

std::uint64_t
PatternBuilder::compressTarget(Addr target) const
{
    switch (_spec.compressor) {
      case CompressorKind::BitSelect:
        return bitsRange(target, _spec.lowBit, _bits);
      case CompressorKind::FoldXor:
        // Fold the address above the alignment bits so the constant
        // zero bits 0..1 do not dilute the result.
        return xorFold(target >> 2, _bits);
      case CompressorKind::ShiftXor:
        // Elements are not compressed individually in this scheme.
        return target;
    }
    panic("unreachable compressor kind");
}

std::uint64_t
PatternBuilder::interleavedPattern(const HistoryBuffer &history) const
{
    const unsigned p = _spec.pathLength;

    if (_spec.interleave == InterleaveKind::Concat) {
        // Newest target (index 0) in the least-significant bits.
        std::uint64_t pattern = 0;
        for (unsigned i = 0; i < p; ++i)
            pattern |= compressTarget(history.at(i)) << (i * _bits);
        return pattern;
    }

    // Round-robin bit assembly (Figure 15). Within each round the
    // targets contribute one bit each, in scheme order; the pattern
    // is filled LSB-first, so the ordering decides which targets are
    // represented most precisely in the low-order (index) bits. The
    // constructor folded the whole schedule into one scatter mask
    // per target (this runs once per simulated branch).
    std::uint64_t pattern = 0;
    for (unsigned i = 0; i < p; ++i)
        pattern |= scatterBits(compressTarget(history.at(i)),
                               _scatter[i], _scatterHw);
    return pattern;
}

std::uint64_t
PatternBuilder::shiftXorPattern(const HistoryBuffer &history) const
{
    // Oldest to newest: shift left by b and xor in the whole target,
    // truncated to the pattern width (section 4.1, second variant).
    const unsigned p = _spec.pathLength;
    const std::uint64_t mask = lowMask(std::min(_spec.patternBits(),
                                                54u));
    std::uint64_t pattern = 0;
    for (unsigned i = p; i-- > 0;) {
        pattern = ((pattern << _bits) ^ (history.at(i) >> 2)) & mask;
    }
    return pattern;
}

std::uint64_t
PatternBuilder::assemblePattern(const HistoryBuffer &history) const
{
    IBP_ASSERT(_spec.precision == PrecisionMode::Limited,
               "assemblePattern in full-precision mode");
    IBP_ASSERT(history.depth() >= _spec.pathLength,
               "history depth %u < path length %u", history.depth(),
               _spec.pathLength);
    if (_spec.pathLength == 0)
        return 0;
    if (_spec.compressor == CompressorKind::ShiftXor)
        return shiftXorPattern(history);
    return interleavedPattern(history);
}

Key
PatternBuilder::buildKey(Addr pc, const HistoryBuffer &history) const
{
    if (_spec.precision == PrecisionMode::Full) {
        // Exact (hashed) key over the address part and the p most
        // recent full targets. Only the first `count` words are
        // written and read, so the array stays uninitialised.
        const std::uint64_t addr_part =
            _spec.tableSharing >= 32 ? 0 : (pc >> _spec.tableSharing);
        std::array<std::uint64_t, 66> words;
        unsigned count = 0;
        if (_spec.includeBranchAddress)
            words[count++] = addr_part;
        for (unsigned i = 0; i < _spec.pathLength; ++i)
            words[count++] = history.at(i);
        return makeHashedKey(words.data(), count);
    }

    return keyFromPattern(pc, assemblePattern(history));
}

bool
PatternBuilder::fastAssemblyEligible() const
{
    return _spec.precision == PrecisionMode::Limited &&
           _spec.compressor == CompressorKind::BitSelect &&
           _spec.pathLength > 0;
}

std::uint64_t
PatternBuilder::assembleFromCompressed(
    const std::uint64_t *compressed) const
{
    IBP_ASSERT(fastAssemblyEligible(), "fast assembly ineligible");
    const unsigned p = _spec.pathLength;

    if (_spec.interleave == InterleaveKind::Concat) {
        const std::uint64_t mask = lowMask(_bits);
        std::uint64_t pattern = 0;
        for (unsigned i = 0; i < p; ++i)
            pattern |= (compressed[i] & mask) << (i * _bits);
        return pattern;
    }

    // _scatter[i] has exactly _bits set positions, so any extra high
    // bits in a wider-than-b cache entry are never deposited.
    std::uint64_t pattern = 0;
    for (unsigned i = 0; i < p; ++i)
        pattern |= scatterBits(compressed[i], _scatter[i], _scatterHw);
    return pattern;
}

bool
PatternBuilder::incrementalAdvanceEligible() const
{
    if (_spec.precision != PrecisionMode::Limited ||
        _spec.pathLength == 0)
        return false;
    // ShiftXor is a shift-and-xor by construction (the interleave
    // kind does not apply to it); the interleaves are uniform shifts
    // except PingPong, whose schedule alternates ends.
    if (_spec.compressor == CompressorKind::ShiftXor)
        return true;
    return _spec.interleave != InterleaveKind::PingPong;
}

std::uint64_t
PatternBuilder::advancePattern(std::uint64_t pattern, Addr element) const
{
    IBP_ASSERT(incrementalAdvanceEligible(),
               "incremental advance ineligible");

    if (_spec.compressor == CompressorKind::ShiftXor) {
        // Identical to one step of shiftXorPattern(); a dropped-out
        // element's contribution has shifted past the <= 54-bit
        // pattern width after p pushes, so the running value equals
        // the windowed recompute.
        const std::uint64_t mask =
            lowMask(std::min(_spec.patternBits(), 54u));
        return ((pattern << _bits) ^ (element >> 2)) & mask;
    }

    const std::uint64_t bits = compressTarget(element);
    if (_spec.interleave == InterleaveKind::Concat) {
        // Every target moves up one b-bit group; the oldest falls
        // off the masked top, the new element takes the low group.
        return ((pattern << _bits) &
                lowMask(_bits * _spec.pathLength)) |
               bits;
    }

    // Round-robin: a push moves each target one slot along the
    // scheme order. For Straight (slot q holds target q) that is a
    // uniform +1 position shift of the whole pattern; for Reverse
    // (slot q holds target p-1-q) a -1 shift. The newest target's
    // scatter positions are cleared of shifted-in remnants of the
    // dropped oldest target and refilled from the new element.
    const std::uint64_t newest = _scatter[0];
    if (_spec.interleave == InterleaveKind::Straight) {
        const std::uint64_t total =
            lowMask(_bits * _spec.pathLength);
        return ((pattern << 1) & total & ~newest) |
               scatterBits(bits, newest, _scatterHw);
    }
    return ((pattern >> 1) & ~newest) |
           scatterBits(bits, newest, _scatterHw);
}

unsigned
PatternBuilder::indexBits(std::uint64_t sets)
{
    IBP_ASSERT(isPowerOfTwo(sets), "table sets %llu not a power of two",
               static_cast<unsigned long long>(sets));
    return floorLog2(sets);
}

} // namespace ibp
