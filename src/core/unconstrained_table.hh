/**
 * @file
 * Unlimited fully-associative table (section 3 of the paper).
 *
 * Models ideal hardware: every distinct key gets its own entry and
 * nothing is ever evicted. Used to measure the intrinsic
 * predictability of indirect branches before resource constraints
 * are introduced.
 *
 * Entries live in a FlatMap (open addressing, one arena) instead of
 * the node-based std::unordered_map the original implementation
 * used. That original is kept as a test-only oracle in
 * tests/oracle/reference_tables.hh, and the differential tests
 * there pin the two bit-identical.
 */

#ifndef IBP_CORE_UNCONSTRAINED_TABLE_HH
#define IBP_CORE_UNCONSTRAINED_TABLE_HH

#include "core/flat_table.hh"
#include "core/table.hh"

namespace ibp {

class UnconstrainedTable : public TargetTable
{
  public:
    explicit UnconstrainedTable(EntryCounterSpec counters = {})
        : _counters(counters)
    {
    }

    const TableEntry *
    probe(const Key &key) const override
    {
        // Probe-to-access fusion: predict() always probes the key
        // update() is about to access, and find() never mutates the
        // map, so a hit's slot pointer is still valid (no rehash can
        // intervene) when access() consumes the memo below.
        const TableEntry *entry = _entries.find(key);
        _memoEntry = const_cast<TableEntry *>(entry);
        _memoKey = key;
        return entry;
    }

    TableEntry &
    access(const Key &key, bool &replaced) override
    {
        if (_memoEntry != nullptr && _memoKey == key) {
            TableEntry &entry = *_memoEntry;
            _memoEntry = nullptr;
            replaced = false;
            return entry;
        }
        _memoEntry = nullptr;
        bool inserted = false;
        TableEntry &entry = _entries.findOrInsert(key, inserted);
        if (inserted) {
            entry.resetFor(_counters.confidenceBits,
                           _counters.chosenBits);
        }
        replaced = inserted;
        return entry;
    }

    std::uint64_t occupancy() const override { return _entries.size(); }
    std::uint64_t capacity() const override { return 0; }

    void
    reset() override
    {
        _entries.clear();
        _memoEntry = nullptr;
    }

    std::string name() const override { return "unconstrained"; }

  private:
    EntryCounterSpec _counters;
    FlatMap<Key, TableEntry, KeyHash> _entries;

    /** One-shot probe memo (see probe()); mutable because probe() is
     *  const. Invalidated by any access and by reset(). */
    mutable TableEntry *_memoEntry = nullptr;
    mutable Key _memoKey{};
};

} // namespace ibp

#endif // IBP_CORE_UNCONSTRAINED_TABLE_HH
