/**
 * @file
 * Reference (per-record) simulation loop: the whole-predictor oracle.
 *
 * This is the seed's simulate() loop, kept verbatim apart from the
 * retired per-site statistics and cancellation poll: every record is
 * visited in trace order, every conditional is offered to the
 * predictor, and every predicted indirect branch is predicted,
 * counted and updated through the virtual interface on a predictor
 * that owns its own history. It is test-only: the library runs every
 * simulation through simulateMany()'s lane engine, and
 * tests/oracle/engine_oracle_test.cc requires that engine to produce
 * exactly this loop's counters, cell by cell.
 */

#ifndef IBP_TESTS_ORACLE_REFERENCE_SIMULATE_HH
#define IBP_TESTS_ORACLE_REFERENCE_SIMULATE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/simd.hh"
#include "sim/suite_runner.hh"

namespace ibp {

/** Run @p predictor over @p trace from a cold state, record by
 *  record, skipping @p warmupBranches leading indirect branches in
 *  the counts (they still train). */
inline SimResult
referenceSimulate(IndirectPredictor &predictor, const Trace &trace,
                  std::uint64_t warmupBranches = 0)
{
    constexpr std::size_t kPrefetchDistance = 16;

    SimResult result;
    result.benchmark = trace.name();
    result.predictor = predictor.name();

    const auto start = std::chrono::steady_clock::now();

    const BranchRecord *const records = trace.data();
    const std::size_t count = trace.size();

    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (i + kPrefetchDistance < count)
            IBP_PREFETCH(records + i + kPrefetchDistance);

        const BranchRecord &record = records[i];
        if (record.kind == BranchKind::Conditional) {
            predictor.observeConditional(record.pc, record.taken,
                                         record.target);
            continue;
        }
        if (!record.isPredictedIndirect())
            continue; // returns are handled by a return-address stack

        ++seen;
        const Prediction prediction = predictor.predict(record.pc);
        const bool counted = seen > warmupBranches;
        if (counted) {
            const bool correct = prediction.correctFor(record.target);
            ++result.branches;
            if (!correct) {
                ++result.misses;
                if (!prediction.valid)
                    ++result.noPrediction;
            }
        }
        predictor.update(record.pc, record.target);
    }

    result.tableOccupancy = predictor.tableOccupancy();
    result.tableCapacity = predictor.tableCapacity();
    result.seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    result.groupSeconds = result.seconds;
    return result;
}

/** The oracle's result for a fresh predictor of @p column. */
inline SimResult
referenceCell(const SweepColumn &column, const Trace &trace,
              std::uint64_t warmupBranches = 0)
{
    const std::unique_ptr<IndirectPredictor> predictor = column.make();
    return referenceSimulate(*predictor, trace, warmupBranches);
}

/** The grid SuiteRunner::run must reproduce: every (column x
 *  benchmark) cell through the oracle loop. */
inline GridResult
referenceGrid(const SuiteRunner &runner,
              const std::vector<SweepColumn> &columns)
{
    GridResult grid;
    for (const auto &column : columns) {
        for (const auto &name : runner.benchmarks()) {
            grid.set(column.label, name,
                     referenceCell(column, runner.trace(name))
                         .missPercent());
        }
    }
    return grid;
}

} // namespace ibp

#endif // IBP_TESTS_ORACLE_REFERENCE_SIMULATE_HH
