/**
 * @file
 * Reproduces Figure 2: misprediction rates of an unconstrained
 * branch target buffer, with and without the two-bit-counter update
 * rule, for every benchmark and group.
 *
 * Paper anchors: AVG 28.1% (BTB) vs 24.9% (BTB-2bc); OO programs
 * around 20%, C programs around 37%; AVG-200 much worse than
 * AVG-100.
 */

#include <memory>

#include "core/btb.hh"
#include "sim/experiment.hh"
#include "sim/spec_columns.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig02Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig02", "Unconstrained BTB vs BTB-2bc (Figure 2)",
        [](ExperimentContext &context) {
            auto runner = SuiteRunner::fullSuite(false, context.config());

            const std::vector<SweepColumn> columns = {
                btbColumn("BTB", TableSpec::unconstrained(), false),
                btbColumn("BTB-2bc", TableSpec::unconstrained(),
                          true),
            };

            const GridResult grid =
                runner.run(columns, context.session());
            context.emit(runner.benchmarkTable(
                "Figure 2: unconstrained BTB misprediction rates (%)",
                grid, columns));
            context.note("Paper anchors: AVG 28.1 (BTB) / 24.9 "
                         "(BTB-2bc); BTB-2bc wins nearly everywhere.");
        },
        /*shardable=*/true});
    return def;
}
