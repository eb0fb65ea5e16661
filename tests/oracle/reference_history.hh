/**
 * @file
 * The seed's per-set history bank, kept as the test-only oracle for
 * HistoryRegister: one node-map probe per consultation, no pool and
 * no memo.
 */

#ifndef IBP_TESTS_ORACLE_REFERENCE_HISTORY_HH
#define IBP_TESTS_ORACLE_REFERENCE_HISTORY_HH

#include <cstdint>
#include <unordered_map>

#include "core/history_register.hh"

namespace ibp {

class ReferenceHistory
{
  public:
    ReferenceHistory(unsigned depth, unsigned sharingBits)
        : _depth(depth), _sharingBits(sharingBits), _global(depth)
    {
    }

    bool isGlobal() const { return _sharingBits >= 32; }

    HistoryBuffer &
    buffer(Addr pc)
    {
        if (isGlobal())
            return _global;
        const std::uint32_t set = pc >> _sharingBits;
        return _sets.try_emplace(set, _depth).first->second;
    }

    void push(Addr pc, Addr target) { buffer(pc).push(target); }

    void
    reset()
    {
        _global.clear();
        _sets.clear();
    }

    std::size_t touchedSets() const
    {
        return isGlobal() ? 1 : _sets.size();
    }

  private:
    unsigned _depth;
    unsigned _sharingBits;
    HistoryBuffer _global;
    std::unordered_map<std::uint32_t, HistoryBuffer> _sets;
};

} // namespace ibp

#endif // IBP_TESTS_ORACLE_REFERENCE_HISTORY_HH
