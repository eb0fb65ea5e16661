/**
 * @file
 * Differential tests of the flat target tables against their
 * node-based oracles (tests/oracle/reference_tables.hh).
 *
 * For every column of the diverse column mix on idl, perl and self,
 * the column's production predictor supplies the key stream it forms on
 * that trace. Each production table (makeTable) and its oracle twin
 * then receive the identical op stream - probe, access, the BTB /
 * two-level target update - and must agree on every probe answer,
 * every allocation, every entry's state and the final occupancy.
 * Between the column's own ops the stream also probes a key from
 * kStaleDistance branches back: probes are read-only by contract, so
 * one that touched replacement state would surface as a later
 * divergence.
 *
 * The keys are pinned as well: an oracle history bank plus the
 * seed's bit-by-bit pattern assembly must rebuild every key the
 * predictor forms, which covers the tagless columns (the tagless
 * table was a flat array in the seed already, so it has no twin).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/factory.hh"
#include "oracle/diverse_columns.hh"
#include "oracle/reference_history.hh"
#include "oracle/reference_pattern.hh"
#include "oracle/reference_tables.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_cache.hh"

namespace ibp {
namespace {

class TableOracleTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("IBP_EVENTS", "0.05", 1);
        TraceCache::configureGlobal("");
    }
    void
    TearDown() override
    {
        TraceCache::configureGlobal("");
        unsetenv("IBP_EVENTS");
    }
};

constexpr std::size_t kStaleDistance = 16;

/** The oracle twin of a production table, or nullptr (tagless). */
std::unique_ptr<TargetTable>
makeReferenceTable(const TableSpec &spec, EntryCounterSpec counters)
{
    switch (spec.kind) {
      case TableKind::Unconstrained:
        return std::make_unique<ReferenceUnconstrainedTable>(counters);
      case TableKind::FullyAssoc:
        return std::make_unique<ReferenceFullyAssocTable>(spec.entries,
                                                          counters);
      case TableKind::SetAssoc:
        return std::make_unique<ReferenceSetAssocTable>(
            spec.entries, spec.ways, counters);
      case TableKind::Tagless:
        return nullptr;
    }
    return nullptr;
}

/** Everything observable about one probe answer or entry. */
using EntryState = std::tuple<bool, bool, Addr, bool, unsigned, unsigned>;

EntryState
stateOf(const TableEntry *entry)
{
    if (entry == nullptr)
        return {false, false, 0, false, 0, 0};
    return {true,
            entry->valid,
            entry->target,
            entry->hysteresis.pendingMiss(),
            entry->confidence.value(),
            entry->chosen.value()};
}

/** The BTB / two-level target update rule (btb.cc, two_level.cc). */
void
train(TableEntry &entry, bool replaced, Addr actual, bool hysteresis)
{
    if (replaced || !entry.valid) {
        entry.target = actual;
        entry.valid = true;
    } else if (entry.target == actual) {
        entry.hysteresis.hit();
        entry.confidence.increment();
    } else {
        entry.confidence.decrement();
        if (!hysteresis || entry.hysteresis.miss())
            entry.target = actual;
    }
}

/** The `table=` option of a BTB spec (unconstrained when absent). */
TableSpec
btbTable(const std::string &spec)
{
    const auto at = spec.find("table=");
    if (at == std::string::npos)
        return TableSpec::unconstrained();
    const auto end = spec.find(',', at);
    return parseTableSpec(spec.substr(
        at + 6, end == std::string::npos ? end : end - at - 6));
}

/**
 * One table of a column: the production table and its oracle twin,
 * and - for two-level components - the oracle history that rebuilds
 * the component's keys.
 */
struct Machine
{
    /** nullptr for a BTB, which keys by pc alone. */
    TwoLevelPredictor *component = nullptr;
    bool hysteresis = false;
    std::unique_ptr<TargetTable> table;
    std::unique_ptr<TargetTable> twin;
    std::optional<ReferenceHistory> history;
    std::optional<PatternBuilder> builder;
    std::vector<Key> recent;
    std::size_t cursor = 0;

    static Machine
    btb(const std::string &spec, bool hysteresis)
    {
        const TableSpec table = btbTable(spec);
        Machine machine;
        machine.hysteresis = hysteresis;
        machine.table = makeTable(table);
        machine.twin = makeReferenceTable(table, {});
        return machine;
    }

    static Machine
    twoLevel(TwoLevelPredictor &component)
    {
        const TwoLevelConfig &config = component.config();
        const EntryCounterSpec counters{config.confidenceBits, 2};
        Machine machine;
        machine.component = &component;
        machine.hysteresis = config.hysteresis;
        machine.table = makeTable(config.table, counters);
        machine.twin = makeReferenceTable(config.table, counters);
        machine.history.emplace(config.pattern.pathLength,
                                config.historySharing);
        machine.builder.emplace(config.pattern);
        return machine;
    }

    Key
    oracleKey(Addr pc)
    {
        const PatternSpec &spec = component->config().pattern;
        const HistoryBuffer &buffer = history->buffer(pc);
        if (spec.precision == PrecisionMode::Limited &&
            spec.compressor != CompressorKind::ShiftXor) {
            return builder->keyFromPattern(
                pc, referenceInterleavedPattern(spec, buffer));
        }
        return builder->buildKey(pc, buffer);
    }

    /** Mirror of TwoLevelPredictor::pushHistory on the oracle. */
    void
    push(Addr pc, Addr target)
    {
        if (!component)
            return;
        if (component->config().historyElement ==
            HistoryElement::TargetAndAddress)
            history->push(pc, pc);
        history->push(pc, target);
    }

    /** One predicted branch; returns the divergence, or "". */
    std::string
    step(Addr pc, Addr actual)
    {
        const Key key =
            component ? component->currentKey(pc) : makeExactKey(pc >> 2);
        if (component && !(oracleKey(pc) == key))
            return "key differs from the oracle history + pattern";
        if (!twin)
            return "";

        if (recent.size() == kStaleDistance) {
            const Key &stale = recent[cursor];
            if (stateOf(table->probe(stale)) !=
                stateOf(twin->probe(stale)))
                return "stale probe answer differs";
        }
        if (stateOf(table->probe(key)) != stateOf(twin->probe(key)))
            return "probe answer differs";
        bool replaced = false;
        bool twin_replaced = false;
        TableEntry &entry = table->access(key, replaced);
        TableEntry &twin_entry = twin->access(key, twin_replaced);
        if (replaced != twin_replaced)
            return "allocation differs";
        train(entry, replaced, actual, hysteresis);
        train(twin_entry, twin_replaced, actual, hysteresis);
        if (stateOf(&entry) != stateOf(&twin_entry))
            return "entry state differs";

        if (recent.size() < kStaleDistance) {
            recent.push_back(key);
        } else {
            recent[cursor] = key;
            cursor = (cursor + 1) % kStaleDistance;
        }
        return "";
    }
};

struct ReplayStats
{
    std::uint64_t accesses = 0;
    /** Bounded tables that ended full, i.e. replaced under pressure. */
    unsigned saturatedTables = 0;
};

/** Replay one column over @p trace; the first divergence, or "". */
std::string
replayColumn(const std::string &spec, const Trace &trace,
             ReplayStats &stats)
{
    const auto predictor = makePredictorFromSpec(spec);
    std::vector<Machine> machines;
    if (auto *btb = dynamic_cast<BtbPredictor *>(predictor.get())) {
        machines.push_back(Machine::btb(spec, btb->hysteresis()));
    } else if (auto *two =
                   dynamic_cast<TwoLevelPredictor *>(predictor.get())) {
        machines.push_back(Machine::twoLevel(*two));
    } else if (auto *hybrid =
                   dynamic_cast<HybridPredictor *>(predictor.get())) {
        for (unsigned i = 0; i < hybrid->numComponents(); ++i)
            machines.push_back(Machine::twoLevel(hybrid->component(i)));
    } else {
        return "no oracle for predictor family " + predictor->name();
    }

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        if (record.kind == BranchKind::Conditional) {
            predictor->observeConditional(record.pc, record.taken,
                                          record.target);
            for (Machine &machine : machines) {
                if (machine.component &&
                    machine.component->config()
                        .includeConditionalTargets &&
                    record.taken)
                    machine.push(record.pc, record.target);
            }
            continue;
        }
        if (!record.isPredictedIndirect())
            continue;
        for (Machine &machine : machines) {
            const std::string divergence =
                machine.step(record.pc, record.target);
            if (!divergence.empty())
                return divergence + " at record " + std::to_string(i);
            if (machine.twin)
                ++stats.accesses;
        }
        // The production predictor advances its own histories; the
        // oracle histories follow.
        predictor->update(record.pc, record.target);
        for (Machine &machine : machines)
            machine.push(record.pc, record.target);
    }

    for (const Machine &machine : machines) {
        if (!machine.twin)
            continue;
        if (machine.table->occupancy() != machine.twin->occupancy())
            return "final occupancy differs";
        if (machine.table->capacity() != machine.twin->capacity())
            return "capacity differs";
        if (machine.table->capacity() != 0 &&
            machine.table->occupancy() == machine.table->capacity())
            ++stats.saturatedTables;
    }
    return "";
}

TEST_F(TableOracleTest, ColumnsDriveFlatTablesAndTwinsIdentically)
{
    SuiteRunner runner({"idl", "perl", "self"});
    ReplayStats stats;
    for (const auto &[label, spec] : diverseColumnSpecs()) {
        for (const auto &name : runner.benchmarks()) {
            EXPECT_EQ(replayColumn(spec, runner.trace(name), stats), "")
                << label << " x " << name;
        }
    }
    // Non-vacuous: real op streams, and replacement under pressure.
    EXPECT_GT(stats.accesses, 100000u);
    EXPECT_GT(stats.saturatedTables, 0u);
}

} // namespace
} // namespace ibp
