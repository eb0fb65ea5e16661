/**
 * @file
 * Reference (node-based) table implementations.
 *
 * These are the pre-flat-table implementations of the bounded and
 * unbounded target tables, kept verbatim as the behavioural oracle
 * for the FlatMap-based ports in src/core. They are test-only: the
 * library always builds the flat tables, and the differential tests
 * in tests/oracle/table_oracle_test.cc drive each production table
 * and its twin here with the same key and op stream and require
 * identical probe answers, entry state and occupancy.
 *
 * They deliberately report the same name() strings as their flat
 * twins.
 */

#ifndef IBP_TESTS_ORACLE_REFERENCE_TABLES_HH
#define IBP_TESTS_ORACLE_REFERENCE_TABLES_HH

#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/table.hh"
#include "util/logging.hh"

namespace ibp {

/** Node-based unlimited fully-associative table (section 3). */
class ReferenceUnconstrainedTable : public TargetTable
{
  public:
    explicit ReferenceUnconstrainedTable(EntryCounterSpec counters = {})
        : _counters(counters)
    {
    }

    const TableEntry *
    probe(const Key &key) const override
    {
        const auto it = _entries.find(key);
        return it == _entries.end() ? nullptr : &it->second;
    }

    TableEntry &
    access(const Key &key, bool &replaced) override
    {
        auto [it, inserted] = _entries.try_emplace(key);
        if (inserted) {
            it->second.resetFor(_counters.confidenceBits,
                                _counters.chosenBits);
        }
        replaced = inserted;
        return it->second;
    }

    std::uint64_t occupancy() const override { return _entries.size(); }
    std::uint64_t capacity() const override { return 0; }
    void reset() override { _entries.clear(); }
    std::string name() const override { return "unconstrained"; }

  private:
    EntryCounterSpec _counters;
    std::unordered_map<Key, TableEntry, KeyHash> _entries;
};

/** std::list + iterator-map LRU table (section 5.1). */
class ReferenceFullyAssocTable : public TargetTable
{
  public:
    ReferenceFullyAssocTable(std::uint64_t entries,
                             EntryCounterSpec counters = {})
        : _capacity(entries), _counters(counters)
    {
        IBP_ASSERT(entries >= 1, "fully-assoc table needs >= 1 entry");
    }

    const TableEntry *
    probe(const Key &key) const override
    {
        const auto it = _index.find(key);
        return it == _index.end() ? nullptr : &it->second->second;
    }

    TableEntry &
    access(const Key &key, bool &replaced) override
    {
        const auto it = _index.find(key);
        if (it != _index.end()) {
            // Touch: move to the MRU (front) position.
            _lru.splice(_lru.begin(), _lru, it->second);
            replaced = false;
            return it->second->second;
        }
        if (_lru.size() >= _capacity) {
            // Evict the LRU (back) entry.
            _index.erase(_lru.back().first);
            _lru.pop_back();
        }
        _lru.emplace_front(key, TableEntry{});
        _lru.front().second.resetFor(_counters.confidenceBits,
                                     _counters.chosenBits);
        _index[key] = _lru.begin();
        replaced = true;
        return _lru.front().second;
    }

    std::uint64_t occupancy() const override { return _lru.size(); }
    std::uint64_t capacity() const override { return _capacity; }

    void
    reset() override
    {
        _lru.clear();
        _index.clear();
    }

    std::string name() const override { return "fullassoc"; }

  private:
    using LruList = std::list<std::pair<Key, TableEntry>>;

    std::uint64_t _capacity;
    EntryCounterSpec _counters;
    LruList _lru;
    std::unordered_map<Key, LruList::iterator, KeyHash> _index;
};

/** Set-associative table without the tag-byte fast path (5.2). */
class ReferenceSetAssocTable : public TargetTable
{
  public:
    ReferenceSetAssocTable(std::uint64_t entries, unsigned ways,
                           EntryCounterSpec counters = {})
        : _ways(ways), _counters(counters)
    {
        IBP_ASSERT(ways >= 1, "associativity must be >= 1");
        IBP_ASSERT(entries >= ways && entries % ways == 0,
                   "entries %llu not a multiple of ways %u",
                   static_cast<unsigned long long>(entries), ways);
        _sets = entries / ways;
        IBP_ASSERT(isPowerOfTwo(_sets),
                   "set count %llu not a power of two",
                   static_cast<unsigned long long>(_sets));
        _indexBits = floorLog2(_sets);
        _storage.resize(entries);
    }

    std::uint64_t
    indexOf(const Key &key) const
    {
        return key.lo & lowMask(_indexBits);
    }

    std::uint64_t
    tagOf(const Key &key) const
    {
        return (key.lo >> _indexBits) ^
               (key.hi * 0x9e3779b97f4a7c15ULL);
    }

    const TableEntry *
    probe(const Key &key) const override
    {
        const std::uint64_t set = indexOf(key);
        const std::uint64_t tag = tagOf(key);
        const Way *base = &_storage[set * _ways];
        for (unsigned w = 0; w < _ways; ++w) {
            const Way &way = base[w];
            if (way.entry.valid && way.tag == tag)
                return &way.entry;
        }
        return nullptr;
    }

    TableEntry &
    access(const Key &key, bool &replaced) override
    {
        const std::uint64_t set = indexOf(key);
        const std::uint64_t tag = tagOf(key);
        Way *base = &_storage[set * _ways];
        ++_clock;

        Way *victim = &base[0];
        for (unsigned w = 0; w < _ways; ++w) {
            Way &way = base[w];
            if (way.entry.valid && way.tag == tag) {
                way.lastUse = _clock;
                replaced = false;
                return way.entry;
            }
            // Prefer an invalid way; otherwise the least recently
            // used.
            if (!way.entry.valid) {
                if (victim->entry.valid ||
                    way.lastUse < victim->lastUse) {
                    victim = &way;
                }
            } else if (victim->entry.valid &&
                       way.lastUse < victim->lastUse) {
                victim = &way;
            }
        }

        victim->tag = tag;
        victim->lastUse = _clock;
        victim->entry.resetFor(_counters.confidenceBits,
                               _counters.chosenBits);
        replaced = true;
        return victim->entry;
    }

    std::uint64_t
    occupancy() const override
    {
        std::uint64_t count = 0;
        for (const auto &way : _storage)
            count += way.entry.valid ? 1 : 0;
        return count;
    }

    std::uint64_t capacity() const override { return _ways * _sets; }

    void
    reset() override
    {
        for (auto &way : _storage) {
            way.tag = 0;
            way.lastUse = 0;
            way.entry = TableEntry{};
        }
        _clock = 0;
    }

    std::string
    name() const override
    {
        return "assoc" + std::to_string(_ways);
    }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        TableEntry entry;
    };

    unsigned _ways;
    std::uint64_t _sets;
    unsigned _indexBits;
    EntryCounterSpec _counters;
    std::vector<Way> _storage; // _sets * _ways, set-major
    std::uint64_t _clock = 0;
};

} // namespace ibp

#endif // IBP_TESTS_ORACLE_REFERENCE_TABLES_HH
