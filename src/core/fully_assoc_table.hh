/**
 * @file
 * Bounded fully-associative table with LRU replacement (section 5.1).
 *
 * Introduces capacity misses: when the working set of history
 * patterns exceeds the table size, the least-recently-used pattern is
 * evicted. probe() does not touch recency; access() moves the entry
 * to the MRU position, matching the paper's trace-driven usage where
 * every lookup is followed by an update of the same key.
 *
 * The LRU order is an intrusive doubly-linked list threaded through
 * a contiguous node pool by 32-bit indices, with a FlatMap from key
 * to pool index — no std::list, no per-entry allocation, and an
 * eviction recycles the victim's node in place. The previous
 * std::list implementation is kept as a test-only oracle in
 * tests/oracle/reference_tables.hh, and the differential tests
 * there pin the two bit-identical.
 */

#ifndef IBP_CORE_FULLY_ASSOC_TABLE_HH
#define IBP_CORE_FULLY_ASSOC_TABLE_HH

#include <vector>

#include "core/flat_table.hh"
#include "core/table.hh"
#include "util/logging.hh"

namespace ibp {

class FullyAssocTable : public TargetTable
{
  public:
    FullyAssocTable(std::uint64_t entries, EntryCounterSpec counters = {})
        : _capacity(entries), _counters(counters)
    {
        IBP_ASSERT(entries >= 1, "fully-assoc table needs >= 1 entry");
        IBP_ASSERT(entries < kNil,
                   "fully-assoc capacity %llu exceeds the 32-bit "
                   "node-index space",
                   static_cast<unsigned long long>(entries));
    }

    const TableEntry *
    probe(const Key &key) const override
    {
        // Read-only: recency must not move (see file comment).
        const std::uint32_t *node = _index.find(key);
        return node == nullptr ? nullptr : &_nodes[*node].entry;
    }

    TableEntry &
    access(const Key &key, bool &replaced) override
    {
        if (std::uint32_t *hit = _index.find(key)) {
            moveToFront(*hit);
            replaced = false;
            return _nodes[*hit].entry;
        }
        std::uint32_t node;
        if (_nodes.size() >= _capacity) {
            // Evict the LRU (tail) entry, recycling its node.
            node = _tail;
            unlink(node);
            _index.erase(_nodes[node].key);
        } else {
            node = static_cast<std::uint32_t>(_nodes.size());
            _nodes.emplace_back();
        }
        Node &fresh = _nodes[node];
        fresh.key = key;
        fresh.entry.resetFor(_counters.confidenceBits,
                             _counters.chosenBits);
        linkFront(node);
        bool inserted = false;
        _index.findOrInsert(key, inserted) = node;
        replaced = true;
        return fresh.entry;
    }

    std::uint64_t occupancy() const override { return _nodes.size(); }
    std::uint64_t capacity() const override { return _capacity; }

    void
    reset() override
    {
        _nodes.clear();
        _index.clear();
        _head = kNil;
        _tail = kNil;
    }

    std::string name() const override { return "fullassoc"; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Node
    {
        Key key{};
        TableEntry entry{};
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    void
    unlink(std::uint32_t node)
    {
        Node &n = _nodes[node];
        if (n.prev != kNil)
            _nodes[n.prev].next = n.next;
        else
            _head = n.next;
        if (n.next != kNil)
            _nodes[n.next].prev = n.prev;
        else
            _tail = n.prev;
    }

    void
    linkFront(std::uint32_t node)
    {
        Node &n = _nodes[node];
        n.prev = kNil;
        n.next = _head;
        if (_head != kNil)
            _nodes[_head].prev = node;
        _head = node;
        if (_tail == kNil)
            _tail = node;
    }

    void
    moveToFront(std::uint32_t node)
    {
        if (_head == node)
            return;
        unlink(node);
        linkFront(node);
    }

    std::uint64_t _capacity;
    EntryCounterSpec _counters;
    std::vector<Node> _nodes;
    FlatMap<Key, std::uint32_t, KeyHash> _index;
    std::uint32_t _head = kNil;
    std::uint32_t _tail = kNil;
};

} // namespace ibp

#endif // IBP_CORE_FULLY_ASSOC_TABLE_HH
