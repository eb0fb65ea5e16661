/**
 * @file
 * Second-level key formation: compress the target-address history
 * into a pattern and mix it with the branch address.
 *
 * This implements the paper's sections 3.2.2 (history-table sharing
 * parameter h), 4.1 (history-pattern compression: bit selection from
 * bit a=2, xor-folding, shift-xor), 4.2 (concatenating vs xor-ing the
 * branch address, the "gshare analogy"), and 5.2.1 (concatenation vs
 * straight / reverse / ping-pong interleaving of target bits, which
 * determines which bits land in the index part of the key).
 */

#ifndef IBP_CORE_PATTERN_HH
#define IBP_CORE_PATTERN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/history_register.hh"
#include "core/key.hh"
#include "util/bits.hh"

namespace ibp {

/** Full 32-bit targets (section 3) or b-bit compressed (section 4). */
enum class PrecisionMode { Full, Limited };

/** How a target address is reduced to b bits (section 4.1). */
enum class CompressorKind
{
    /** Select bits [a .. a+b-1]; the paper's winning scheme. */
    BitSelect,
    /** Xor-fold the whole address into b bits (rejected variant). */
    FoldXor,
    /** Shift pattern left b bits, xor in the whole new target
     *  (rejected variant; element order is fixed, so the
     *  InterleaveKind does not apply). */
    ShiftXor,
};

/** How per-target bit groups are assembled into the pattern. */
enum class InterleaveKind
{
    /** Newest target in the least-significant b bits (section 5.2.1
     *  shows this starves the index of older-target bits). */
    Concat,
    /** Round-robin, newest targets represented most precisely. */
    Straight,
    /** Round-robin, oldest targets most precise; the paper's pick. */
    Reverse,
    /** Round-robin from both ends (newest and oldest most precise). */
    PingPong,
};

/** How the branch address is combined with the pattern (section 4.2). */
enum class KeyMix
{
    /** key = pattern . addr - larger tags, slightly more accurate. */
    Concat,
    /** key = pattern xor addr - the gshare analogy; adopted. */
    Xor,
};

/** Names for reporting. */
std::string toString(PrecisionMode mode);
std::string toString(CompressorKind kind);
std::string toString(InterleaveKind kind);
std::string toString(KeyMix mix);

/**
 * Complete key-formation recipe for a two-level predictor.
 * Field semantics follow Table 4 of the paper.
 */
struct PatternSpec
{
    /** Path length p: number of history targets in the pattern. */
    unsigned pathLength = 3;

    PrecisionMode precision = PrecisionMode::Limited;

    /**
     * Bits per target b; 0 selects the paper's auto rule: the largest
     * b with b * p <= 24 (and at least 1).
     */
    unsigned bitsPerTarget = 0;

    /** First selected address bit a (word alignment makes 2 best). */
    unsigned lowBit = 2;

    CompressorKind compressor = CompressorKind::BitSelect;
    InterleaveKind interleave = InterleaveKind::Reverse;
    KeyMix keyMix = KeyMix::Xor;

    /**
     * History-table sharing h in [2, 32]: branches whose address bits
     * h..31 agree share one history table. h = 2 gives per-address
     * tables (the paper's winner), h >= 32 a single shared table.
     */
    unsigned tableSharing = 2;

    /** Omitting the branch address is a rejected variant (3.3). */
    bool includeBranchAddress = true;

    /** Field-wise equality (sweep kernels deduplicate recipes). */
    bool operator==(const PatternSpec &other) const = default;

    /** The resolved b for this spec (applies the auto rule). */
    unsigned resolvedBitsPerTarget() const;

    /** Total pattern width b * p in bits (limited mode). */
    unsigned patternBits() const;

    /** Validate ranges; calls fatal() on user error. */
    void validate() const;

    /** Compact human-readable description. */
    std::string describe() const;
};

/**
 * Stateless key builder for one PatternSpec. Given a branch PC and
 * its history buffer, produces the table lookup key.
 */
class PatternBuilder
{
  public:
    explicit PatternBuilder(const PatternSpec &spec);

    const PatternSpec &spec() const { return _spec; }

    /** The b-bit compressed form of one target (BitSelect/FoldXor). */
    std::uint64_t compressTarget(Addr target) const;

    /**
     * Assemble the limited-precision history pattern from the p most
     * recent targets in @p history (history.depth() must be >= p).
     */
    std::uint64_t assemblePattern(const HistoryBuffer &history) const;

    /** The full lookup key for branch @p pc under @p history. */
    Key buildKey(Addr pc, const HistoryBuffer &history) const;

    /**
     * True when this recipe can assemble its pattern from an external
     * cache of bit-selected targets (assembleFromCompressed): limited
     * precision, BitSelect compressor, p > 0. Sweep kernels share one
     * such cache across every column of a group.
     */
    bool fastAssemblyEligible() const;

    /**
     * Assemble the pattern from @p compressed, the per-target
     * bit-selections bitsRange(target_i, a, B) for i in [0, p)
     * (newest first) with B >= this recipe's b and the same a. Wider
     * entries are fine: the scatter masks (and the Concat mask)
     * consume exactly b low bits. Only valid when
     * fastAssemblyEligible(); bit-identical to assemblePattern().
     */
    std::uint64_t
    assembleFromCompressed(const std::uint64_t *compressed) const;

    /**
     * Mix an already-assembled limited-precision pattern with the
     * branch address into the final key (the tail of buildKey()).
     * Inline: this is the whole per-branch key work of an
     * incremental sweep variant, so it must fold into the lane
     * engine's key-resolution loop.
     */
    Key
    keyFromPattern(Addr pc, std::uint64_t pattern) const
    {
        if (!_spec.includeBranchAddress)
            return makeExactKey(pattern);

        // The address part of the key: bits h.. of the branch address
        // (h = 2 keeps the full word-aligned address and gives the
        // per-address tables the paper settles on).
        const std::uint64_t addr_part =
            _spec.tableSharing >= 32 ? 0
                                     : (pc >> _spec.tableSharing);
        const std::uint64_t addr30 = addr_part & lowMask(30);
        if (_spec.keyMix == KeyMix::Xor)
            return makeExactKey(pattern ^ addr30);
        return makeExactKey((pattern << 30) | addr30);
    }

    /**
     * True when the pattern can be maintained *incrementally*: given
     * the pattern over targets (t0..tp-1), one call to
     * advancePattern() produces the pattern over (new, t0..tp-2)
     * without revisiting the history buffer. Holds for every
     * limited-precision recipe whose assembly is a per-push shift -
     * Concat/Straight/Reverse interleaves and ShiftXor (PingPong's
     * schedule is not a uniform shift). Sweep kernels use this to
     * advance a global-history pattern once per commit instead of
     * re-assembling it per branch.
     */
    bool incrementalAdvanceEligible() const;

    /**
     * The pattern after pushing @p element as the new most-recent
     * history entry (see incrementalAdvanceEligible()); bit-identical
     * to re-running assemblePattern() over the shifted history.
     */
    std::uint64_t advancePattern(std::uint64_t pattern,
                                 Addr element) const;

    /**
     * Number of low key bits that index a table of @p sets sets; the
     * remaining bits form the tag. Exposed for documentation/tests.
     */
    static unsigned indexBits(std::uint64_t sets);

  private:
    std::uint64_t interleavedPattern(const HistoryBuffer &history) const;
    std::uint64_t shiftXorPattern(const HistoryBuffer &history) const;

    PatternSpec _spec;
    unsigned _bits; // resolved bits per target

    /**
     * simdScatterEnabled() captured at construction, so the per-call
     * scatter dispatch is one predictable member-byte branch instead
     * of a global config load in the hottest assembly loop.
     */
    bool _scatterHw;

    /**
     * Round-robin interleaving, precomputed: _scatter[i] has one bit
     * set per destination position of target i's compressed bits
     * (ascending, so depositing bit r of the compressed target into
     * the r-th set position reproduces the Figure-15 assembly). Built
     * once per PatternBuilder; the per-branch assembly is then p
     * bit-scatters instead of b*p divide-and-mask steps.
     */
    std::vector<std::uint64_t> _scatter;
};

} // namespace ibp

#endif // IBP_CORE_PATTERN_HH
