/**
 * @file
 * Reproduces Figure 10: history-pattern compression by selecting b
 * low-order bits (starting at bit a=2) from each target, for
 * b in {1,2,3,4,8} and full 32-bit addresses, across path lengths
 * p = 0..12. Unconstrained tables isolate the information loss.
 *
 * Paper anchors: the b=8 curve overlaps the full-address curve;
 * losing precision hurts short path lengths most (p=3: 10.6% at
 * b=2 vs 7.1% full; p=10: 6.77% vs 6.53%); 24 total pattern bits
 * (the largest b with b*p <= 24) approach full precision everywhere.
 */

#include <memory>

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

namespace {

TwoLevelConfig
limitedConfig(unsigned p, unsigned b)
{
    TwoLevelConfig config = paperTwoLevel(
        p, TableSpec::unconstrained());
    config.pattern.bitsPerTarget = b;
    // Section 4.1 predates the xor key mixing of section 4.2.
    config.pattern.keyMix = KeyMix::Concat;
    return config;
}

} // namespace

const ibp::ExperimentDef &
fig10Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig10", "Limited-precision history patterns (Figure 10)", [](ExperimentContext &context) {
            auto runner = SuiteRunner::avgSuite(false, context.config());
            const auto &avg = benchmarkGroups().avg;

            ResultTable table(
                "Figure 10: AVG misprediction (%) vs path length for "
                "b-bit target selection [2..2+b-1]",
                "p");
            std::vector<unsigned> bits = {1, 2, 3, 4, 8};
            for (unsigned b : bits)
                table.addColumn("b=" + std::to_string(b));
            table.addColumn("b*p<=24");
            table.addColumn("full");

            const unsigned max_p = context.quick() ? 6 : 12;
            // One call per path length: fusing the rows measured no
            // faster and raised the peak RSS 1.6-2.5x.
            for (unsigned p = 1; p <= max_p; ++p) {
                std::vector<SweepColumn> columns;
                for (unsigned b : bits) {
                    // Skip configurations whose pattern would not
                    // fit the 64-bit concatenated key.
                    if (b * p + 30 > 64)
                        continue;
                    columns.push_back(
                        {"b=" + std::to_string(b), [p, b]() {
                             return std::make_unique<
                                 TwoLevelPredictor>(
                                 limitedConfig(p, b));
                         }});
                }
                columns.push_back({"b*p<=24", [p]() {
                                       return std::make_unique<
                                           TwoLevelPredictor>(
                                           limitedConfig(p, 0));
                                   }});
                columns.push_back(
                    {"full", [p]() {
                         return std::make_unique<TwoLevelPredictor>(
                             unconstrainedTwoLevel(p));
                     }});

                const GridResult grid =
                    runner.run({columns}, context.session()).front();
                const unsigned row =
                    table.addRow(std::to_string(p));
                for (const auto &column : columns) {
                    table.set(std::to_string(p), column.label,
                              grid.average(column.label, avg));
                }
                (void)row;
            }
            context.emit(table);
            context.note(
                "Paper anchors: b=8 overlaps full precision; small b "
                "hurts short paths most; the b*p<=24 rule tracks the "
                "full-precision curve.");
        }});
    return def;
}
