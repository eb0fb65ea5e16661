#include "core/table_spec.hh"

#include "core/fully_assoc_table.hh"
#include "core/set_assoc_table.hh"
#include "core/tagless_table.hh"
#include "core/unconstrained_table.hh"
#include "util/logging.hh"

namespace ibp {

std::string
toString(TableKind kind)
{
    switch (kind) {
      case TableKind::Unconstrained: return "unconstrained";
      case TableKind::FullyAssoc:    return "fullassoc";
      case TableKind::SetAssoc:      return "assoc";
      case TableKind::Tagless:       return "tagless";
    }
    return "?";
}

void
TableSpec::validate() const
{
    if (kind == TableKind::Unconstrained)
        return;
    if (entries == 0)
        fatal("bounded table needs a nonzero entry count");
    if (kind == TableKind::SetAssoc) {
        if (ways == 0 || entries % ways != 0)
            fatal("entries %llu not divisible by ways %u",
                  static_cast<unsigned long long>(entries), ways);
        if (!isPowerOfTwo(entries / ways))
            fatal("set count %llu not a power of two",
                  static_cast<unsigned long long>(entries / ways));
    }
    if (kind == TableKind::Tagless && !isPowerOfTwo(entries))
        fatal("tagless table size %llu not a power of two",
              static_cast<unsigned long long>(entries));
}

std::string
TableSpec::describe() const
{
    if (kind == TableKind::Unconstrained)
        return "unconstrained";
    std::string text = toString(kind);
    if (kind == TableKind::SetAssoc)
        text += std::to_string(ways);
    text += "-" + std::to_string(entries);
    return text;
}

TableSpec
TableSpec::unconstrained()
{
    return TableSpec{TableKind::Unconstrained, 0, 1};
}

TableSpec
TableSpec::fullyAssoc(std::uint64_t entries)
{
    return TableSpec{TableKind::FullyAssoc, entries, 1};
}

TableSpec
TableSpec::setAssoc(std::uint64_t entries, unsigned ways)
{
    return TableSpec{TableKind::SetAssoc, entries, ways};
}

TableSpec
TableSpec::tagless(std::uint64_t entries)
{
    return TableSpec{TableKind::Tagless, entries, 1};
}

std::unique_ptr<TargetTable>
makeTable(const TableSpec &spec, EntryCounterSpec counters)
{
    spec.validate();
    switch (spec.kind) {
      case TableKind::Unconstrained:
        return std::make_unique<UnconstrainedTable>(counters);
      case TableKind::FullyAssoc:
        return std::make_unique<FullyAssocTable>(spec.entries, counters);
      case TableKind::SetAssoc:
        return std::make_unique<SetAssocTable>(spec.entries, spec.ways,
                                               counters);
      case TableKind::Tagless:
        return std::make_unique<TaglessTable>(spec.entries, counters);
    }
    panic("unreachable table kind");
}

} // namespace ibp
