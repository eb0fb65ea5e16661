#include "sim/simulator.hh"

#include <chrono>
#include <unordered_map>

#include "core/hybrid.hh"
#include "core/set_assoc_table.hh"
#include "core/simd.hh"
#include "core/sweep_kernel.hh"
#include "core/two_level.hh"
#include "robust/error.hh"
#include "trace/trace_block.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

[[noreturn]] void
throwPastDeadline(const Trace &trace)
{
    throw RunException(RunError::timeout(
        "simulation of '" + trace.name() + "' passed its deadline"));
}

/**
 * The lane engine's execution plan for one traversal.
 *
 * Columns whose per-record work is a pure function of bound
 * two-level component predictions - plain bound TwoLevelPredictor
 * columns and confidence-metaprediction hybrids with every component
 * bound - are executed in *phases* across the whole column set:
 * first every distinct state machine is probed, then each column
 * combines its members' predictions into counters, then every
 * machine trains, and only then do the remaining (generic) columns
 * run their usual predict/update pairs.
 *
 * A *machine* is one dedup state owner (TwoLevelPredictor whose
 * table actually holds state); columns reference machines by index,
 * so a fig17 row's dozen hybrids sharing a p1 component probe that
 * component once per record instead of once per column. The phase
 * split is bit-identical to the interleaved order because columns
 * are state-disjoint: the only couplings are the dedup prediction
 * memo (written by the machine probe phase, version-gated, and
 * deliberately surviving the machine's own update until the kernel
 * commit bumps the version) and the shared history (advanced only
 * by the commit after all phases).
 *
 * The machine's driver object is the first-encountered component
 * referencing that owner, upgraded to the owner itself whenever the
 * owner appears in a lane column - so update() trains the state
 * exactly once per record: through the driver when the owner's
 * column is a lane column (driver == owner), through the owner's
 * own generic column otherwise (driver is a replica whose update()
 * is a no-op).
 */
struct LanePlan
{
    struct Column
    {
        std::size_t result;    ///< index into the results array
        bool hybrid;           ///< confidence combine vs passthrough
        std::uint32_t first;   ///< offset into memberPool
        std::uint32_t count;   ///< member machines (1 for plain)
    };

    /**
     * One machine's flattened per-record execution recipe: the lane
     * engine drives the state-owning table directly (prefetch, probe,
     * access plus the verbatim two-level update rule) with the key of
     * the machine's shared variant, resolved once per record per
     * *slot* (distinct variant). This removes the whole
     * predict()/update()/currentKey() call stack from the hot loop;
     * the dedup contract survives because replicated owners get their
     * prediction memo primed with the probed answer (see prime).
     */
    struct Machine
    {
        TargetTable *table;        ///< the owner's second-level table
        /** table when it is a SetAssocTable (the sweep workhorse),
         *  else nullptr: SetAssocTable is final with inline
         *  probe/access, so this pointer devirtualizes the per-record
         *  table work and lets it inline into the lane loops. */
        SetAssocTable *setAssoc;
        std::uint32_t keySlot;     ///< index into keySlots/laneKeys
        TwoLevelPredictor *owner;  ///< state owner (memo priming)
        /** Phase 3 trains this table (driver == owner). When the
         *  owner's own column is generic, its update() there is the
         *  one real training pass and phase 3 must not add another. */
        bool train;
        bool hysteresis;           ///< owner's 2bc update rule flag
        /** Owner has replicas or out-of-plan readers: mirror the
         *  probed prediction into its sharedPredict() memo. */
        bool prime;
    };

    /** One distinct (variant, group) key source among the machines. */
    struct KeySlot
    {
        SweepKeyVariant *variant;
        SweepHistoryGroup *group;
    };

    std::vector<TwoLevelPredictor *> machines; ///< driver objects
    std::vector<Machine> exec;                 ///< parallel to machines
    std::vector<KeySlot> keySlots;
    std::vector<Key> laneKeys;                 ///< per-slot scratch
    std::vector<std::uint16_t> memberPool;     ///< column members
    std::vector<Column> columns;               ///< lane columns
    std::vector<IndirectPredictor *> generic;  ///< record-at-a-time
    std::vector<std::size_t> genericResult;
    /** The generic columns whose consumesConditionals() holds: the
     *  only ones conditional records are forwarded to. */
    std::vector<IndirectPredictor *> conditionalSinks;

    /**
     * A column that declined the kernel: it shares no state with any
     * other column, so it runs column-major - over a whole block
     * before the next column - instead of interleaved per record.
     * Only its own record order matters, and that is unchanged.
     */
    struct Independent
    {
        IndirectPredictor *predictor;
        std::size_t result;
        bool conditionals;  ///< consumesConditionals()
    };
    std::vector<Independent> independent;
    std::vector<Prediction> lanePred;          ///< per-machine scratch
};

LanePlan
buildLanePlan(std::span<IndirectPredictor *const> predictors,
              const std::vector<bool> &joined)
{
    LanePlan plan;
    std::unordered_map<const TwoLevelPredictor *, std::uint16_t>
        machineOf;
    auto machineIndex = [&plan, &machineOf](
                            TwoLevelPredictor &component) {
        TwoLevelPredictor *owner = component.sweepPrimary() != nullptr
                                       ? component.sweepPrimary()
                                       : &component;
        auto [it, inserted] = machineOf.try_emplace(
            owner, static_cast<std::uint16_t>(plan.machines.size()));
        if (inserted)
            plan.machines.push_back(&component);
        else if (&component == owner)
            plan.machines[it->second] = owner;
        return it->second;
    };

    for (std::size_t i = 0; i < predictors.size(); ++i) {
        IndirectPredictor *predictor = predictors[i];
        if (auto *two = dynamic_cast<TwoLevelPredictor *>(predictor);
            two != nullptr && two->sweepBound()) {
            plan.columns.push_back(
                {i, false,
                 static_cast<std::uint32_t>(plan.memberPool.size()),
                 1});
            plan.memberPool.push_back(machineIndex(*two));
            continue;
        }
        if (auto *hybrid = dynamic_cast<HybridPredictor *>(predictor);
            hybrid != nullptr &&
            hybrid->config().meta == MetaKind::Confidence) {
            bool all_bound = true;
            for (unsigned c = 0; c < hybrid->numComponents(); ++c)
                all_bound &= hybrid->component(c).sweepBound();
            if (all_bound) {
                const LanePlan::Column column{
                    i, true,
                    static_cast<std::uint32_t>(plan.memberPool.size()),
                    hybrid->numComponents()};
                for (unsigned c = 0; c < hybrid->numComponents(); ++c) {
                    plan.memberPool.push_back(
                        machineIndex(hybrid->component(c)));
                }
                plan.columns.push_back(column);
                continue;
            }
        }
        if (!joined[i]) {
            plan.independent.push_back(
                {predictor, i, predictor->consumesConditionals()});
            continue;
        }
        plan.generic.push_back(predictor);
        plan.genericResult.push_back(i);
        if (predictor->consumesConditionals())
            plan.conditionalSinks.push_back(predictor);
    }
    plan.lanePred.resize(plan.machines.size());

    // Resolve the flattened execution recipes now that every driver
    // upgrade has happened. Machines sharing a PatternSpec share a
    // key slot, so a fig17 row resolves each distinct key exactly
    // once per record no matter how many tables consume it.
    plan.exec.reserve(plan.machines.size());
    for (TwoLevelPredictor *driver : plan.machines) {
        TwoLevelPredictor *owner = driver->sweepPrimary() != nullptr
                                       ? driver->sweepPrimary()
                                       : driver;
        SweepKeyVariant *variant = owner->sweepVariant();
        SweepHistoryGroup *group = owner->sweepGroup();
        IBP_ASSERT(variant != nullptr && group != nullptr,
                   "lane machine not sweep-bound");
        std::uint32_t slot = 0;
        while (slot < plan.keySlots.size() &&
               plan.keySlots[slot].variant != variant) {
            ++slot;
        }
        if (slot == plan.keySlots.size())
            plan.keySlots.push_back({variant, group});
        const bool train = driver == owner;
        plan.exec.push_back(
            {&owner->table(),
             dynamic_cast<SetAssocTable *>(&owner->table()), slot,
             owner, train, owner->config().hysteresis,
             owner->replicated()});
    }
    plan.laneKeys.resize(plan.keySlots.size());
    return plan;
}

} // namespace

SimResult
simulate(IndirectPredictor &predictor, const Trace &trace,
         const SimOptions &options)
{
    IndirectPredictor *const column = &predictor;
    return std::move(simulateMany({&column, 1}, trace, options).front());
}

std::vector<SimResult>
simulateMany(std::span<IndirectPredictor *const> predictors,
             const Trace &trace, const SimOptions &options)
{
    std::vector<SimResult> results(predictors.size());
    if (predictors.empty())
        return results;
    for (std::size_t i = 0; i < predictors.size(); ++i) {
        IBP_ASSERT(predictors[i] != nullptr,
                   "simulateMany: null predictor at index %zu", i);
        results[i].benchmark = trace.name();
        results[i].predictor = predictors[i]->name();
    }

    const auto start = std::chrono::steady_clock::now();

    // The call's own kernel: every predictor is offered to it, and
    // its destructor unbinds them again on every exit path, so no
    // pointer into it outlives the call.
    SweepKernel kernel;
    std::vector<bool> joined(predictors.size());
    for (std::size_t i = 0; i < predictors.size(); ++i)
        joined[i] = kernel.tryJoin(*predictors[i]);
    kernel.finalize();

    // No deadline is max(), which the clock never reaches.
    const auto deadline = options.deadline;

    // Partition the columns between the batched lane engine and the
    // generic path (see LanePlan), and decide whether conditional
    // records matter to anyone: bound predictors fold conditional
    // targets in through the kernel's groups, so when no generic
    // column consumes them either, the block classifier drops them
    // without ever dispatching a record.
    LanePlan plan = buildLanePlan(predictors, joined);
    bool need_conditionals =
        kernel.hasConditionalGroups() || !plan.conditionalSinks.empty();
    for (const LanePlan::Independent &column : plan.independent)
        need_conditionals |= column.conditionals;
    // Independent columns alone need no per-record pass at all.
    const bool record_major =
        !plan.columns.empty() || !plan.generic.empty();

    const std::size_t machine_count = plan.machines.size();
    const LanePlan::Machine *const machines = plan.exec.data();
    const std::size_t key_slot_count = plan.keySlots.size();
    const LanePlan::KeySlot *const key_slots = plan.keySlots.data();
    Key *const lane_keys = plan.laneKeys.data();
    Prediction *const lane_pred = plan.lanePred.data();
    const std::uint16_t *const members = plan.memberPool.data();

    if (options.traversal != nullptr) {
        options.traversal->laneColumns =
            static_cast<std::uint32_t>(plan.columns.size());
        options.traversal->genericColumns = static_cast<std::uint32_t>(
            plan.generic.size() + plan.independent.size());
        options.traversal->laneMachines =
            static_cast<std::uint32_t>(machine_count);
        options.traversal->predictorsBound = kernel.joinedPredictors();
        options.traversal->predictorsUnbound =
            kernel.declinedPredictors();
        options.traversal->predictorsDeduped =
            kernel.dedupedPredictors();
    }

    // The trace is consumed in cache-resident SoA blocks (zero-copy
    // for columnar traces); the classifier turns each block into the
    // index list of records anyone cares about. Every predictor
    // still sees exactly the sequence the per-record protocol feeds
    // it, so the counters must match it bit for bit.
    TraceBlockCursor cursor(trace);
    std::vector<std::uint32_t> selected(kTraceBlockRecords);
    std::uint64_t seen = 0;
    std::uint64_t polled = 0;
    TraceBlock block;
    while (cursor.next(block)) {
        if (std::chrono::steady_clock::now() >= deadline)
            throwPastDeadline(trace);
        const std::size_t selected_count = simd::classifyMeta(
            block.meta, block.count, 0, need_conditionals,
            selected.data());
        if (options.traversal != nullptr) {
            if (cursor.columnarSource())
                ++options.traversal->columnarBlocks;
            else
                ++options.traversal->transposedBlocks;
            options.traversal->skippedRecords +=
                block.count - selected_count;
        }

        const std::uint64_t block_seen = seen;
        for (std::size_t s = 0; record_major && s < selected_count;
             ++s) {
            // One increment-and-mask per record keeps the clock read
            // off the hot path; 1K records is a few microseconds, so
            // a deadline overrun is caught fast even on small traces.
            if ((++polled & 0x3ffu) == 0 &&
                std::chrono::steady_clock::now() >= deadline) {
                throwPastDeadline(trace);
            }
            const std::uint32_t index = selected[s];
            const Addr pc = block.pc[index];
            const Addr target = block.target[index];
            const std::uint8_t meta = block.meta[index];

            if (branchMetaKind(meta) == BranchKind::Conditional) {
                // Lane columns are fully bound - their
                // observeConditional() chains are no-ops - so only
                // the declared generic consumers need the record.
                const bool taken = branchMetaTaken(meta);
                for (IndirectPredictor *predictor :
                     plan.conditionalSinks) {
                    predictor->observeConditional(pc, taken, target);
                }
                kernel.observeConditional(pc, taken, target);
                continue;
            }

            ++seen;
            const bool counted = seen > options.warmupBranches;

            // Phase 0: resolve each distinct key once (incremental
            // variants collapse this to an address mix), then start
            // pulling every machine's table set toward the cache -
            // the dozen-plus tables of a sweep row do not fit L2 and
            // their probe misses would otherwise stall back to back.
            for (std::size_t v = 0; v < key_slot_count; ++v) {
                lane_keys[v] = key_slots[v].variant->laneKey(
                    pc, *key_slots[v].group);
            }
            for (std::size_t m = 0; m < machine_count; ++m) {
                const LanePlan::Machine &machine = machines[m];
                if (machine.setAssoc != nullptr)
                    machine.setAssoc->prefetch(
                        lane_keys[machine.keySlot]);
            }

            // Phase 1: probe every distinct state machine once -
            // directly on the owning table, reproducing lookup()
            // verbatim. The probes are pre-update by construction;
            // replicated owners get their prediction memo primed so
            // replicas and generic readers later in the record still
            // mirror this pre-update answer.
            for (std::size_t m = 0; m < machine_count; ++m) {
                const LanePlan::Machine &machine = machines[m];
                const TableEntry *entry =
                    machine.setAssoc != nullptr
                        ? machine.setAssoc->probe(
                              lane_keys[machine.keySlot])
                        : machine.table->probe(
                              lane_keys[machine.keySlot]);
                if (entry == nullptr || !entry->valid) {
                    lane_pred[m] = Prediction{};
                } else {
                    lane_pred[m] = Prediction{
                        true, entry->target,
                        static_cast<int>(entry->confidence.value())};
                }
                if (machine.prime)
                    machine.owner->primeSharedPrediction(pc,
                                                         lane_pred[m]);
            }

            // Phase 2: per-column combine into counters (pure
            // arithmetic - skipped wholesale during warm-up).
            if (counted) {
                for (const LanePlan::Column &column : plan.columns) {
                    const std::uint16_t *member =
                        members + column.first;
                    Prediction combined;
                    if (!column.hybrid) {
                        combined = lane_pred[member[0]];
                    } else {
                        // The confidence metapredictor, verbatim:
                        // highest confidence wins, ties to the
                        // earlier component, an invalid winner means
                        // no prediction (HybridPredictor::predict).
                        int chosen = -1;
                        int best = -2;
                        for (std::uint32_t k = 0; k < column.count;
                             ++k) {
                            const Prediction &pred =
                                lane_pred[member[k]];
                            if (pred.confidence > best) {
                                best = pred.confidence;
                                chosen = static_cast<int>(k);
                            }
                        }
                        if (chosen >= 0 &&
                            lane_pred[member[chosen]].valid) {
                            combined = lane_pred[member[chosen]];
                        }
                    }
                    SimResult &result = results[column.result];
                    ++result.branches;
                    if (!combined.correctFor(target)) {
                        ++result.misses;
                        if (!combined.valid)
                            ++result.noPrediction;
                    }
                }
            }

            // Phase 3: train every machine whose driver is its owner
            // exactly once, with the verbatim two-level update rule
            // (TwoLevelPredictor::update); the access consumes the
            // probe's way memo, and bound owners push no history
            // (the kernel commit below advances the shared groups).
            // Machines owned by a generic column are trained there,
            // in phase 4.
            for (std::size_t m = 0; m < machine_count; ++m) {
                const LanePlan::Machine &machine = machines[m];
                if (!machine.train)
                    continue;
                bool replaced = false;
                TableEntry &entry =
                    machine.setAssoc != nullptr
                        ? machine.setAssoc->access(
                              lane_keys[machine.keySlot], replaced)
                        : machine.table->access(
                              lane_keys[machine.keySlot], replaced);
                if (replaced || !entry.valid) {
                    entry.target = target;
                    entry.valid = true;
                } else if (entry.target == target) {
                    entry.hysteresis.hit();
                    entry.confidence.increment();
                } else {
                    entry.confidence.decrement();
                    if (!machine.hysteresis || entry.hysteresis.miss())
                        entry.target = target;
                }
            }

            // Phase 4: generic columns run their usual interleaved
            // predict/update. Reads of shared machine state hit the
            // version-gated prediction memo, which still holds the
            // pre-update answer until the commit below.
            for (std::size_t g = 0; g < plan.generic.size(); ++g) {
                IndirectPredictor *predictor = plan.generic[g];
                const Prediction prediction = predictor->predict(pc);
                if (counted) {
                    SimResult &result =
                        results[plan.genericResult[g]];
                    ++result.branches;
                    if (!prediction.correctFor(target)) {
                        ++result.misses;
                        if (!prediction.valid)
                            ++result.noPrediction;
                    }
                }
                predictor->update(pc, target);
            }

            // Solo predictors push history inside update() *after*
            // consuming the key they cached pre-push; committing the
            // shared histories once, after every bound predictor
            // trained, reproduces exactly that order.
            kernel.commit(pc, target);
        }

        // Independent columns, column-major: one predictor's tables
        // stay cache-hot across the whole block, and its counters
        // live in registers.
        for (const LanePlan::Independent &column : plan.independent) {
            IndirectPredictor &predictor = *column.predictor;
            std::uint64_t column_seen = block_seen;
            std::uint64_t branches = 0;
            std::uint64_t misses = 0;
            std::uint64_t no_prediction = 0;
            for (std::size_t s = 0; s < selected_count; ++s) {
                if ((s & 0x3ffu) == 0x3ffu &&
                    std::chrono::steady_clock::now() >= deadline) {
                    throwPastDeadline(trace);
                }
                const std::uint32_t index = selected[s];
                const Addr pc = block.pc[index];
                const Addr target = block.target[index];
                const std::uint8_t meta = block.meta[index];
                if (branchMetaKind(meta) == BranchKind::Conditional) {
                    if (column.conditionals) {
                        predictor.observeConditional(
                            pc, branchMetaTaken(meta), target);
                    }
                    continue;
                }
                const Prediction prediction = predictor.predict(pc);
                if (++column_seen > options.warmupBranches) {
                    ++branches;
                    if (!prediction.correctFor(target)) {
                        ++misses;
                        if (!prediction.valid)
                            ++no_prediction;
                    }
                }
                predictor.update(pc, target);
            }
            SimResult &result = results[column.result];
            result.branches += branches;
            result.misses += misses;
            result.noPrediction += no_prediction;
            seen = column_seen;
        }
    }

    // One traversal produced all results, so the wall time is shared
    // state: record the real group time and split it evenly so
    // aggregate cell-seconds telemetry stays comparable across chunk
    // sizes (the quotient is synthetic when more than one predictor
    // shared it - consumers branch on sharedTraversal). predictors
    // is non-empty here (guarded above).
    const double group_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    const double seconds =
        group_seconds / static_cast<double>(predictors.size());
    for (std::size_t i = 0; i < predictors.size(); ++i) {
        results[i].tableOccupancy = predictors[i]->tableOccupancy();
        results[i].tableCapacity = predictors[i]->tableCapacity();
        results[i].seconds = seconds;
        results[i].groupSeconds = group_seconds;
        results[i].sharedTraversal = predictors.size() > 1;
    }
    return results;
}

} // namespace ibp
