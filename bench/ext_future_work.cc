/**
 * @file
 * The paper's future-work agenda (section 8.1), implemented:
 *
 *  1. Hybrids with three components and with differently-sized
 *     components;
 *  2. the shared-table hybrid whose entries carry a "chosen"
 *     counter so seldom-used entries can be recuperated by another
 *     component;
 *  3. next-branch prediction: predicting the address of the next
 *     indirect branch along with the target.
 */

#include <memory>

#include "core/factory.hh"
#include "core/next_branch.hh"
#include "core/shared_hybrid.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"
#include "trace/trace_block.hh"

#include "suites.hh"

using namespace ibp;

namespace {

/** Next-branch predictions over one trace: every record but the last
 *  predicts its target and the record after it. */
struct NextBranchCounts
{
    std::uint64_t predictions = 0;
    std::uint64_t targetHits = 0;
    std::uint64_t jointHits = 0;
};

/** One walk over @p trace with a predictor per path length. */
std::vector<NextBranchCounts>
countNextBranchHits(const Trace &trace,
                    const std::vector<unsigned> &path_lengths)
{
    std::vector<NextBranchPredictor> predictors;
    predictors.reserve(path_lengths.size());
    for (const unsigned p : path_lengths)
        predictors.emplace_back(p);
    std::vector<NextBranchCounts> counts(path_lengths.size());
    // The previous record waits for its successor, which may sit in
    // the next block.
    bool pending = false;
    Addr pc = 0, target = 0;
    TraceBlockCursor cursor(trace);
    TraceBlock block;
    while (cursor.next(block)) {
        for (std::size_t i = 0; i < block.count; ++i) {
            const Addr next_pc = block.pc[i];
            for (std::size_t k = 0; pending && k < predictors.size();
                 ++k) {
                const NextBranchPrediction guess =
                    predictors[k].predict(pc);
                ++counts[k].predictions;
                if (guess.valid && guess.target == target) {
                    ++counts[k].targetHits;
                    if (guess.nextPc == next_pc)
                        ++counts[k].jointHits;
                }
                predictors[k].update(pc, target, next_pc);
            }
            pending = true;
            pc = next_pc;
            target = block.target[i];
        }
    }
    return counts;
}

} // namespace

const ibp::ExperimentDef &
extFutureWorkExperiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "ext_future", "Future-work extensions (section 8.1)", [](ExperimentContext &context) {
            auto runner = SuiteRunner::avgSuite(false, context.config());
            const std::uint64_t total = context.quick() ? 1024 : 4096;

            const std::vector<SweepColumn> columns = {
                {"2comp",
                 [total]() {
                     return std::make_unique<HybridPredictor>(
                         paperHybrid(3, 1,
                                     TableSpec::setAssoc(total / 2,
                                                         4)));
                 }},
                {"3comp",
                 [total]() {
                     HybridConfig config;
                     const TableSpec spec = TableSpec::setAssoc(
                         (total / 4) & ~std::uint64_t{3}, 4);
                     config.components = {
                         paperTwoLevel(5, spec),
                         paperTwoLevel(2, spec),
                         paperTwoLevel(0, TableSpec::setAssoc(
                                              total / 2, 4))};
                     return std::make_unique<HybridPredictor>(config);
                 }},
                {"asym",
                 [total]() {
                     // Differently-sized components: a small quick
                     // component plus a large long-path one (3-way
                     // keeps the set count a power of two).
                     return std::make_unique<HybridPredictor>(
                         HybridConfig::twoComponent(
                             paperTwoLevel(6, TableSpec::setAssoc(
                                                  total * 3 / 4, 3)),
                             paperTwoLevel(1, TableSpec::setAssoc(
                                                  total / 4, 4))));
                 }},
                {"shared",
                 [total]() {
                     SharedHybridConfig config;
                     config.pathLengths = {3, 1};
                     config.entries = total;
                     config.ways = 4;
                     return std::make_unique<SharedHybridPredictor>(
                         config);
                 }},
                {"shared-3p",
                 [total]() {
                     SharedHybridConfig config;
                     config.pathLengths = {6, 3, 1};
                     config.entries = total;
                     config.ways = 4;
                     return std::make_unique<SharedHybridPredictor>(
                         config);
                 }},
            };

            const GridResult grid =
                runner.run({columns}, context.session()).front();
            context.emit(runner.groupTable(
                "Future-work hybrids at " + std::to_string(total) +
                    " total entries (misprediction %)",
                grid, columns));
            context.note(
                "The shared table lets the component split float "
                "with usefulness; compare against the fixed "
                "half/half '2comp' baseline.");

            // Next-branch prediction (run-ahead). Evaluate the joint
            // (target, next indirect PC) accuracy on the AVG suite.
            ResultTable next_table(
                "Next-branch prediction (unconstrained, joint "
                "target+next-PC accuracy %)",
                "p");
            next_table.addColumn("target-hit%");
            next_table.addColumn("joint-hit%");
            const std::vector<unsigned> path_lengths = {1, 3, 6};
            // counts[benchmark][p]: each trace walked once, on the
            // executor, for all three path lengths.
            std::vector<std::vector<NextBranchCounts>> counts(
                runner.benchmarks().size());
            runner.forEachTrace(
                [&](std::size_t index, const Trace &trace) {
                    counts[index] =
                        countNextBranchHits(trace, path_lengths);
                });
            for (std::size_t i = 0; i < path_lengths.size(); ++i) {
                // Summed in benchmark order; integer counts make the
                // sums exact.
                double target_hits = 0, joint_hits = 0, total_b = 0;
                for (const auto &per_benchmark : counts) {
                    if (per_benchmark.empty())
                        continue;
                    target_hits +=
                        static_cast<double>(per_benchmark[i].targetHits);
                    joint_hits +=
                        static_cast<double>(per_benchmark[i].jointHits);
                    total_b +=
                        static_cast<double>(per_benchmark[i].predictions);
                }
                const std::string row = std::to_string(path_lengths[i]);
                next_table.set(row, "target-hit%",
                               100.0 * target_hits / total_b);
                next_table.set(row, "joint-hit%",
                               100.0 * joint_hits / total_b);
            }
            context.emit(next_table);
            context.note(
                "Joint accuracy close to target accuracy means the "
                "path usually determines the next indirect branch "
                "too - the property run-ahead prediction needs.");
        }});
    return def;
}
