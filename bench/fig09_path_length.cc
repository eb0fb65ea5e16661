/**
 * @file
 * Reproduces Figure 9: misprediction rate as a function of the path
 * length p (global history, per-address tables, unconstrained, full
 * precision), p = 0..18.
 *
 * Paper anchors: AVG drops steeply from 24.9% (p=0, a BTB) to 7.8%
 * at p=3, reaches its minimum 5.8% at p=6, then rises monotonically
 * through p=18 (long histories stop paying because of warm-up after
 * phase changes). All groups follow the same U shape.
 */

#include <memory>

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig09Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig09", "Path-length sweep p=0..18 (Figure 9)",
        [](ExperimentContext &context) {
            auto runner = SuiteRunner::fullSuite(false, context.config());

            std::vector<SweepColumn> columns;
            const unsigned step = context.quick() ? 3 : 1;
            for (unsigned p = 0; p <= 18; p += step) {
                columns.push_back(
                    {"p=" + std::to_string(p), [p]() {
                         return std::make_unique<TwoLevelPredictor>(
                             unconstrainedTwoLevel(p));
                     }});
            }

            const GridResult grid =
                runner.run({columns}, context.session()).front();
            context.emit(runner.groupTable(
                "Figure 9: misprediction (%) vs path length "
                "(global history, per-address tables)",
                grid, columns));
            context.note(
                "Paper anchors: AVG 24.9 (p=0) -> 7.8 (p=3) -> "
                "minimum 5.8 (p=6) -> rising through p=18.");
        }});
    return def;
}
