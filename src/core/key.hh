/**
 * @file
 * Lookup keys for history tables.
 *
 * Constrained predictors (sections 4-5 of the paper) form keys of at
 * most 54 bits (24-bit history pattern concatenated with a 30-bit
 * branch address, or their 30-bit xor), which fit in Key::lo exactly.
 *
 * Unconstrained full-precision predictors (section 3) use keys over
 * (table-id, p full 32-bit targets) - up to 600+ bits. We reduce those
 * to 128 bits with two independently-seeded FNV-1a hashes; at the
 * scale of any realistic trace the collision probability is below
 * 1e-20, so this is behaviourally identical to exact keys (DESIGN.md
 * section 1).
 */

#ifndef IBP_CORE_KEY_HH
#define IBP_CORE_KEY_HH

#include <cstdint>
#include <functional>

#include "util/bits.hh"

namespace ibp {

/** A table lookup key; exact for constrained predictors (hi == 0). */
struct Key
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool operator==(const Key &other) const = default;
};

/** Build an exact key from a <= 64-bit pattern. */
constexpr Key
makeExactKey(std::uint64_t bits)
{
    return Key{bits, 0};
}

/**
 * Hashed keys are two FNV-1a chains over the same words, seeded with
 * distinct offset bases so the 64-bit halves decorrelate. A Key
 * doubles as the chains' running state: seedHashedKey() is the state
 * over zero words, extendHashedKey() folds in one more word, and the
 * state after the last word is the key itself. Sweep kernels keep
 * the state after every prefix of a history, so keys over nested
 * prefixes share their hashing (SweepHistoryGroup's key chains).
 */
constexpr Key
seedHashedKey()
{
    return Key{0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL};
}

/** Advance both FNV-1a chains of @p state over one 64-bit word. */
constexpr Key
extendHashedKey(Key state, std::uint64_t word)
{
    // The two chains are independent multiply sequences; walking
    // them in one loop lets their multiplies overlap.
    constexpr std::uint64_t prime = 0x100000001b3ULL;
    for (int byte = 0; byte < 8; ++byte) {
        const std::uint64_t low = word & 0xff;
        state.lo = (state.lo ^ low) * prime;
        state.hi = (state.hi ^ low) * prime;
        word >>= 8;
    }
    return state;
}

/**
 * Build a 128-bit hashed key over a word sequence (table id followed
 * by full-precision history targets): bit-identical to
 * {fnv1a64(words, count, seedA), fnv1a64(words, count, seedB)}.
 */
constexpr Key
makeHashedKey(const std::uint64_t *words, unsigned count)
{
    Key state = seedHashedKey();
    for (unsigned i = 0; i < count; ++i)
        state = extendHashedKey(state, words[i]);
    return state;
}

struct KeyHash
{
    std::size_t
    operator()(const Key &key) const
    {
        return static_cast<std::size_t>(
            mix64(key.lo ^ (key.hi * 0x9e3779b97f4a7c15ULL)));
    }
};

} // namespace ibp

#endif // IBP_CORE_KEY_HH
