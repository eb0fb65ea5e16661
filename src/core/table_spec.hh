/**
 * @file
 * Declarative table specification and factory.
 */

#ifndef IBP_CORE_TABLE_SPEC_HH
#define IBP_CORE_TABLE_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/table.hh"

namespace ibp {

/** The table organisations studied in the paper. */
enum class TableKind
{
    Unconstrained,
    FullyAssoc,
    SetAssoc,
    Tagless,
};

std::string toString(TableKind kind);

/** Size/organisation of one second-level table. */
struct TableSpec
{
    TableKind kind = TableKind::Unconstrained;
    /** Total entries for bounded kinds (ignored for Unconstrained). */
    std::uint64_t entries = 0;
    /** Associativity for SetAssoc. */
    unsigned ways = 1;

    bool operator==(const TableSpec &other) const = default;

    /** Validate; calls fatal() on user error. */
    void validate() const;

    /** "unconstrained", "fullassoc-1024", "assoc4-512", "tagless-1K". */
    std::string describe() const;

    static TableSpec unconstrained();
    static TableSpec fullyAssoc(std::uint64_t entries);
    static TableSpec setAssoc(std::uint64_t entries, unsigned ways);
    static TableSpec tagless(std::uint64_t entries);
};

/** Instantiate the table described by @p spec. */
std::unique_ptr<TargetTable> makeTable(const TableSpec &spec,
                                       EntryCounterSpec counters = {});

} // namespace ibp

#endif // IBP_CORE_TABLE_SPEC_HH
