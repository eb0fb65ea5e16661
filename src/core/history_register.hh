/**
 * @file
 * First-level history: recent indirect-branch targets.
 *
 * The paper's first-level parameter s (section 3.2.1) controls
 * history-pattern sharing: all branches whose address bits s..31 are
 * equal share one history buffer. s = 2 gives per-branch histories
 * (instructions are word-aligned), larger s gives per-set histories,
 * and s >= 31 gives a single global history. We accept s in [2, 32]
 * and treat s >= 32 as exactly global (the paper's s = 31; for
 * executables below 2^31 bytes these are identical).
 *
 * Buffers store full 32-bit target addresses; precision reduction
 * happens later in the pattern builder, so one register serves both
 * the unconstrained (section 3) and limited-precision (section 4)
 * predictors.
 */

#ifndef IBP_CORE_HISTORY_REGISTER_HH
#define IBP_CORE_HISTORY_REGISTER_HH

#include <cstdint>
#include <vector>

#include "core/flat_table.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace ibp {

/**
 * A fixed-depth circular buffer of recent targets for one history
 * set. Index 0 is the most recent target; cold slots read as zero.
 */
class HistoryBuffer
{
  public:
    explicit HistoryBuffer(unsigned depth) : _targets(depth, 0) {}

    unsigned depth() const
    {
        return static_cast<unsigned>(_targets.size());
    }

    /** The i-th most recent target (0 = newest). */
    Addr
    at(unsigned i) const
    {
        IBP_ASSERT(i < depth(), "history index %u depth %u", i, depth());
        // _head and i are both < depth, so one conditional subtract
        // replaces the modulo (depth is rarely a power of two, so
        // the division was real work in the per-branch key build).
        unsigned index = _head + i;
        if (index >= depth())
            index -= depth();
        return _targets[index];
    }

    /** Shift in a new most-recent target. */
    void
    push(Addr target)
    {
        if (_targets.empty())
            return;
        _head = (_head == 0 ? depth() : _head) - 1;
        _targets[_head] = target;
    }

    void
    clear()
    {
        std::fill(_targets.begin(), _targets.end(), 0);
        _head = 0;
    }

  private:
    std::vector<Addr> _targets;
    unsigned _head = 0;
};

/**
 * The per-set history register bank: maps a branch PC to its history
 * buffer according to the sharing parameter s.
 */
class HistoryRegister
{
  public:
    /**
     * @param depth       number of targets retained (the maximum path
     *                    length the owner will ask for); may be 0.
     * @param sharingBits the paper's s parameter, in [2, 32].
     */
    HistoryRegister(unsigned depth, unsigned sharingBits = 32)
        : _depth(depth), _sharingBits(sharingBits),
          _global(depth)
    {
        IBP_ASSERT(sharingBits >= 2 && sharingBits <= 32,
                   "history sharing s=%u outside [2, 32]", sharingBits);
    }

    unsigned depth() const { return _depth; }
    unsigned sharingBits() const { return _sharingBits; }
    bool isGlobal() const { return _sharingBits >= 32; }

    /** History set id of a branch (bits s..31 of its PC). */
    std::uint32_t
    setId(Addr pc) const
    {
        return isGlobal() ? 0 : (pc >> _sharingBits);
    }

    /** The buffer consulted (and updated) by branch @p pc. */
    const HistoryBuffer &
    buffer(Addr pc)
    {
        return mutableBuffer(pc);
    }

    /** Record the resolved target of branch @p pc. */
    void
    push(Addr pc, Addr target)
    {
        mutableBuffer(pc).push(target);
    }

    /** Forget all history (all sets). */
    void
    reset()
    {
        _global.clear();
        _sets.clear();
        _buffers.clear();
        _memoValid = false;
    }

    /** Number of distinct history sets touched so far. */
    std::size_t
    touchedSets() const
    {
        return isGlobal() ? 1 : _sets.size();
    }

  private:
    HistoryBuffer &
    mutableBuffer(Addr pc)
    {
        if (isGlobal())
            return _global;
        // The FlatMap holds pool indices (trivially copyable), the
        // buffers themselves live in _buffers. A branch consults its
        // set twice back to back (key build in predict(), push in
        // update()), so a one-entry memo turns the second probe into
        // a compare. Pool indices are stable (buffers are only
        // appended), so the memo survives FlatMap growth.
        const std::uint32_t set = setId(pc);
        if (_memoValid && _memoSet == set)
            return _buffers[_memoIndex];
        bool inserted = false;
        std::uint32_t &slot = _sets.findOrInsert(set, inserted);
        if (inserted) {
            slot = static_cast<std::uint32_t>(_buffers.size());
            _buffers.emplace_back(_depth);
        }
        _memoValid = true;
        _memoSet = set;
        _memoIndex = slot;
        return _buffers[_memoIndex];
    }

    unsigned _depth;
    unsigned _sharingBits;
    bool _memoValid = false;
    std::uint32_t _memoSet = 0;
    std::uint32_t _memoIndex = 0;
    HistoryBuffer _global;
    FlatMap<std::uint32_t, std::uint32_t> _sets;
    std::vector<HistoryBuffer> _buffers;
};

} // namespace ibp

#endif // IBP_CORE_HISTORY_REGISTER_HH
