/**
 * @file
 * Reproduces Table 5: concatenating vs xor-ing the history pattern
 * with the branch address (the gshare analogy of section 4.2), for
 * path lengths 0..12 with 24-bit compressed patterns and
 * unconstrained tables.
 *
 * Paper anchors: xor loses at most a few hundredths of a percent
 * through p=8 (e.g. p=6: 6.01 vs 5.99) and under half a percent for
 * p >= 9, while halving the tag storage - so xor is adopted for all
 * resource-constrained predictors.
 */

#include <memory>

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
table05Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "table05", "Key mixing: concat vs xor (Table 5)",
        [](ExperimentContext &context) {
            auto runner = SuiteRunner::avgSuite(false, context.config());
            const auto &avg = benchmarkGroups().avg;

            ResultTable table(
                "Table 5: AVG misprediction (%), pattern x address "
                "mixing",
                "operation");
            const unsigned max_p = context.quick() ? 6 : 12;
            for (unsigned p = 0; p <= max_p; ++p)
                table.addColumn("p=" + std::to_string(p));
            table.addRow("Xor");
            table.addRow("Concat");
            table.addRow("Xor-Concat");

            // One call for every path length.
            std::vector<std::vector<SweepColumn>> grids;
            for (unsigned p = 0; p <= max_p; ++p) {
                std::vector<SweepColumn> &columns = grids.emplace_back();
                for (const KeyMix mix :
                     {KeyMix::Xor, KeyMix::Concat}) {
                    columns.push_back(
                        {toString(mix), [p, mix]() {
                             TwoLevelConfig config = paperTwoLevel(
                                 p, TableSpec::unconstrained());
                             config.pattern.keyMix = mix;
                             return std::make_unique<
                                 TwoLevelPredictor>(config);
                         }});
                }
            }
            const std::vector<GridResult> results =
                runner.run(grids, context.session());
            for (unsigned p = 0; p <= max_p; ++p) {
                const GridResult &grid = results[p];
                const double xor_rate = grid.average("xor", avg);
                const double concat_rate =
                    grid.average("concat", avg);
                table.set("Xor", "p=" + std::to_string(p), xor_rate);
                table.set("Concat", "p=" + std::to_string(p),
                          concat_rate);
                table.set("Xor-Concat", "p=" + std::to_string(p),
                          xor_rate - concat_rate);
            }
            context.emit(table);
            context.note("Paper anchors: differences of 0.01-0.5% "
                         "only; xor halves the tag storage and is "
                         "adopted.");
        }});
    return def;
}
