/**
 * @file
 * Fused sweep kernels: shared first-level history and key assembly
 * for a group of two-level predictors simulated in one pass.
 *
 * Every figure in the paper is a sweep whose columns differ in one
 * resource parameter (table size, associativity, the second path
 * length of a hybrid) but share the history specification: the same
 * sharing mode s, the same element kind, the same conditional-target
 * flag. Under simulateMany() each of those columns used to maintain
 * its own HistoryRegister and rebuild its own pattern key per
 * branch - identical work, repeated per column.
 *
 * A SweepKernel hoists that shared work out of the column loop:
 *
 *  - columns joining the kernel (IndirectPredictor::joinSweepKernel)
 *    are grouped by history *signature* (s, element kind,
 *    conditional flag); each group keeps ONE HistoryRegister at the
 *    deepest path length any member needs - HistoryBuffer::at(i) is
 *    depth-independent for i < p, so a deeper buffer serves every
 *    shorter path bit-identically;
 *  - within a group, columns with the same full PatternSpec share
 *    one key *variant* (one PatternBuilder plus a per-branch memo),
 *    so the 13 columns of a fig17 row that share path length p1
 *    build that component's key once per branch, not 13 times;
 *  - bit-select variants additionally share the *compressed targets*:
 *    the group caches bitsRange(target, a, bMax) per branch once,
 *    and each variant derives its own pattern by pushing those
 *    through its precomputed scatter masks (scatterBits consumes
 *    exactly popcount(mask) low bits, so the width-bMax compression
 *    serves every smaller b implicitly). Fold/shift-xor variants
 *    fall back to their own buildKey() over the shared buffer -
 *    still memoized, still bit-identical.
 *  - full-precision variants share *hashed-key prefixes*: their key
 *    is two FNV-1a chains over (address word, h0, ..., h(p-1)), so
 *    the key at path length p is a prefix state of the key at any
 *    deeper p. The group keeps one chain of states per address
 *    recipe (includeBranchAddress, tableSharing), valid for one
 *    (history version, history set, address word) and extended
 *    lazily to the deepest p asked for; each variant reads its key
 *    at entry p. A fig09 row's path lengths thereby hash each
 *    history word once per branch instead of once per column.
 *  - columns (or hybrid components) whose *entire* TwoLevelConfig is
 *    equal go further: they are identical state machines fed the
 *    identical record stream, so their tables, histories and counters
 *    coincide forever. dedupe() designates the first such column the
 *    *primary* and turns the rest into replicas that mirror the
 *    primary's memoized per-record prediction and skip their own
 *    table work entirely. A fig17 row's twelve hybrids all share one
 *    p1 component this way, cutting the row's two-level simulations
 *    per record by almost half.
 *
 * The simulation loop drives the kernel: commit(pc, target) after
 * the per-record predictor loop performs the history pushes that
 * each bound predictor's update() suppressed, and bumps the version
 * that invalidates the memos. Because a solo predictor builds its
 * key from the *pre-push* history (predict() caches it, update()
 * reuses it before pushing), committing once after the loop is
 * observationally identical - the whole-predictor oracle
 * (tests/oracle/engine_oracle_test.cc) pins every SimResult counter
 * bit-for-bit against the unbound per-record loop.
 *
 * Lifetime: bind at construction time, finalize() once, then drive.
 * Bound predictors hold pointers into the kernel; the destructor
 * unbinds every one of them, so none outlives it (simulateMany()
 * scopes one kernel to each call). Not thread-safe; one kernel per
 * traversal.
 */

#ifndef IBP_CORE_SWEEP_KERNEL_HH
#define IBP_CORE_SWEEP_KERNEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/history_register.hh"
#include "core/key.hh"
#include "core/pattern.hh"
#include "core/predictor.hh"

namespace ibp {

class SweepHistoryGroup;
class TwoLevelPredictor;

/** What makes two columns' first-level histories interchangeable. */
struct SweepGroupSignature
{
    /** History-pattern sharing s in [2, 32] (32 = global). */
    unsigned sharingBits = 32;
    /** HistoryElement::TargetAndAddress (two pushes per branch). */
    bool targetAndAddress = false;
    /** Taken conditional targets enter the history (section 3.3). */
    bool includeConditionalTargets = false;

    bool
    operator==(const SweepGroupSignature &other) const
    {
        return sharingBits == other.sharingBits &&
               targetAndAddress == other.targetAndAddress &&
               includeConditionalTargets ==
                   other.includeConditionalTargets;
    }
};

/**
 * One deduplicated key recipe within a group: every column whose
 * PatternSpec is identical shares this builder and its per-branch
 * memo. key() is valid only after SweepKernel::finalize().
 */
class SweepKeyVariant
{
  public:
    explicit SweepKeyVariant(const PatternSpec &spec)
        : _builder(spec)
    {
    }

    const PatternSpec &spec() const { return _builder.spec(); }

    /** The key this recipe produces for @p pc under the group's
     *  current history (memoized per (version, pc)). Defined after
     *  SweepHistoryGroup so the memo-hit path inlines into
     *  TwoLevelPredictor::currentKey - it runs twice per member per
     *  record (predict then update). */
    Key key(Addr pc, SweepHistoryGroup &group);

    /** Lane-engine key: the same value as key(), skipping the
     *  (version, pc) memo - the lane engine resolves each variant
     *  exactly once per record, so the memo could never hit there.
     *  Incremental variants reduce to the inline address mix. */
    Key
    laneKey(Addr pc, SweepHistoryGroup &group)
    {
        if (_incremental)
            return _builder.keyFromPattern(pc, _pattern);
        return key(pc, group);
    }

  private:
    friend class SweepKernel;
    friend class SweepHistoryGroup;

    /** The memo-miss slow path of key(): assemble and store. */
    Key rebuild(Addr pc, SweepHistoryGroup &group);

    /** Fold one pushed history element into the running pattern
     *  (incremental variants only; see _incremental). */
    void
    step(Addr element)
    {
        _pattern = _builder.advancePattern(_pattern, element);
    }

    PatternBuilder _builder;
    /** Derive the pattern from the group's shared compressed-target
     *  cache instead of re-compressing per variant (set by
     *  finalize(); requires flat bit-select with the group's a). */
    bool _fast = false;

    /**
     * Incremental mode (set by finalize()): the group's history is
     * global, so every branch reads the same pattern and each push
     * advances it by one uniform shift
     * (PatternBuilder::advancePattern). The group calls step() once
     * per pushed element and rebuild() collapses to mixing _pattern
     * with the branch address - no per-branch history walk at all.
     */
    bool _incremental = false;
    std::uint64_t _pattern = 0;

    /** Full-precision variants: index of the group key chain this
     *  variant reads its key from (set by finalize(); -1 = none). */
    int _chain = -1;

    std::uint64_t _memoVersion = 0;
    Addr _memoPc = 0;
    bool _memoValid = false;
    Key _memoKey;
};

/** One shared first-level history and its key variants. */
class SweepHistoryGroup
{
  public:
    explicit SweepHistoryGroup(const SweepGroupSignature &signature)
        : _signature(signature)
    {
    }

    const SweepGroupSignature &signature() const { return _signature; }
    std::uint64_t version() const { return _version; }

    /** The shared buffer branch @p pc consults (post-finalize). */
    const HistoryBuffer &
    buffer(Addr pc)
    {
        return _history->buffer(pc);
    }

    /**
     * Compressed targets of @p pc's history set at the group's
     * shared (a, bMax) bit-select, newest first, cacheDepth entries;
     * recomputed at most once per (version, set).
     */
    const std::uint64_t *compressedFor(Addr pc);

  private:
    friend class SweepKernel;
    friend class SweepKeyVariant;

    /**
     * The full-precision key over chain @p chain's address word for
     * @p pc and the @p pathLength newest targets of @p pc's history
     * set: bit-identical to PatternBuilder::buildKey() for any
     * full-precision spec with that chain's address recipe.
     */
    Key chainedKey(unsigned chain, Addr pc, unsigned pathLength);

    /** One resolved element enters @p pc's history: push it into the
     *  shared buffer and advance the incremental patterns. */
    void
    pushElement(Addr pc, Addr element)
    {
        _history->push(pc, element);
        for (SweepKeyVariant *variant : _incremental)
            variant->step(element);
    }

    SweepGroupSignature _signature;
    unsigned _maxDepth = 0;
    std::uint64_t _version = 1;
    std::unique_ptr<HistoryRegister> _history;
    std::vector<std::unique_ptr<SweepKeyVariant>> _variants;
    /** The subset of _variants in incremental mode (global-history
     *  groups only; filled by finalize()). */
    std::vector<SweepKeyVariant *> _incremental;

    // Shared compressed-target cache (see compressedFor).
    bool _cacheEnabled = false;
    unsigned _cacheLowBit = 0;
    unsigned _cacheBits = 0;
    unsigned _cacheDepth = 0;
    std::vector<std::uint64_t> _compressed;
    std::uint64_t _cacheVersion = 0;
    std::uint32_t _cacheSet = 0;
    bool _cacheValid = false;

    /**
     * Prefix chain of hashed-key states for one full-precision
     * address recipe: states[k] is the (FNV-1a A, FNV-1a B) state
     * after the address word (when included) and history words
     * h0..h(k-1). Valid for one (version, set, address word);
     * entries [0, built) are current.
     */
    struct KeyChain
    {
        bool includeBranchAddress = true;
        /** tableSharing h, clamped to 32 (address word 0); 0 when
         *  the recipe omits the address. */
        unsigned tableSharing = 2;
        std::vector<Key> states;
        unsigned built = 0;
        std::uint64_t version = 0;
        std::uint32_t set = 0;
        std::uint64_t addressWord = 0;
    };
    std::vector<KeyChain> _chains;
};

class SweepKernel
{
  public:
    /** What bind() hands a joining predictor. */
    struct Binding
    {
        SweepHistoryGroup *group = nullptr;
        SweepKeyVariant *variant = nullptr;
    };

    SweepKernel() = default;
    /** Unbinds every joined two-level predictor (see Lifetime). */
    ~SweepKernel();
    SweepKernel(const SweepKernel &) = delete;
    SweepKernel &operator=(const SweepKernel &) = delete;

    /**
     * Offer the kernel to @p predictor
     * (IndirectPredictor::joinSweepKernel); families that cannot
     * share history simply decline and run unfused inside the same
     * traversal. Call before finalize().
     */
    bool tryJoin(IndirectPredictor &predictor);

    /**
     * Register one column's key recipe under its history signature.
     * Called by predictors from joinSweepKernel(). Returns the
     * shared group and the (deduplicated) variant.
     */
    Binding bind(const SweepGroupSignature &signature,
                 const PatternSpec &spec);

    /**
     * State deduplication: register @p predictor (already bound via
     * bind()) as a candidate for whole-predictor sharing. Returns the
     * earlier-registered predictor with an equal TwoLevelConfig - the
     * *primary* this one should mirror - or nullptr when @p predictor
     * becomes the primary for its configuration. Every bound
     * two-level predictor registers here, which is how the
     * destructor knows whom to unbind. Relies on the
     * traversal driving members in join order, so a primary always
     * predicts (and memoizes) before any of its replicas read.
     */
    TwoLevelPredictor *dedupe(TwoLevelPredictor &predictor);

    /**
     * Build the shared history registers and resolve the fast-path
     * eligibility of every variant. Must be called exactly once,
     * after all joins and before the traversal.
     */
    void finalize();

    /** An indirect branch resolved: push into every group. */
    void
    commit(Addr pc, Addr target)
    {
        for (const auto &group : _groups) {
            if (group->_signature.targetAndAddress)
                group->pushElement(pc, pc);
            group->pushElement(pc, target);
            ++group->_version;
        }
    }

    /** A conditional branch executed: push into 3.3 groups. */
    void
    observeConditional(Addr pc, bool taken, Addr target)
    {
        if (!taken)
            return;
        for (const auto &group : _groups) {
            if (!group->_signature.includeConditionalTargets)
                continue;
            if (group->_signature.targetAndAddress)
                group->pushElement(pc, pc);
            group->pushElement(pc, target);
            ++group->_version;
        }
    }

    /** True when any group folds taken conditional targets into its
     *  shared history (section 3.3 columns): the traversal must then
     *  feed conditional records to observeConditional() even if no
     *  individual predictor consumes them directly. */
    bool
    hasConditionalGroups() const
    {
        for (const auto &group : _groups) {
            if (group->_signature.includeConditionalTargets)
                return true;
        }
        return false;
    }

    /** Top-level predictors that joined / declined (telemetry). */
    unsigned joinedPredictors() const { return _joined; }
    unsigned declinedPredictors() const { return _declined; }

    /** Two-level columns turned into dedup replicas (telemetry). */
    unsigned dedupedPredictors() const { return _deduped; }

  private:
    std::vector<std::unique_ptr<SweepHistoryGroup>> _groups;
    std::vector<TwoLevelPredictor *> _primaries;
    /** Every two-level predictor bound to this kernel. */
    std::vector<TwoLevelPredictor *> _members;
    bool _finalized = false;
    unsigned _joined = 0;
    unsigned _declined = 0;
    unsigned _deduped = 0;
};

inline Key
SweepKeyVariant::key(Addr pc, SweepHistoryGroup &group)
{
    if (_memoValid && _memoVersion == group._version && _memoPc == pc)
        return _memoKey;
    return rebuild(pc, group);
}

} // namespace ibp

#endif // IBP_CORE_SWEEP_KERNEL_HH
