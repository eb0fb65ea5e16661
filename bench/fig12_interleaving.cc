/**
 * @file
 * Reproduces Figures 12-15: limited associativity and the way target
 * bits are assembled into the key pattern.
 *
 * Part 1 (Figure 12): a 4096-entry table with concatenated target
 * bits shows a saw-tooth - e.g. 1-way p=2 is *worse* than p=1,
 * because concatenation leaves older targets out of the index and
 * alternating paths collide in the same set.
 *
 * Part 2 (Figure 14): reverse interleaving repairs the saw-tooth and
 * dramatically lowers the curves.
 *
 * Part 3 (Figure 15's schemes): straight vs reverse vs ping-pong
 * interleaving; reverse (older targets most precise in the index) is
 * slightly best on average.
 *
 * Also prints the table-utilisation observation of section 5.2.1
 * (interleaving raises utilisation; paper: ixx 50% -> 79% for a 1K
 * 1-way table at p=4).
 */

#include <memory>

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

namespace {

TwoLevelConfig
config4k(unsigned p, unsigned ways, InterleaveKind interleave)
{
    TwoLevelConfig config = paperTwoLevel(
        p, ways == 0 ? TableSpec::tagless(4096)
                     : TableSpec::setAssoc(4096, ways));
    config.pattern.interleave = interleave;
    return config;
}

void
sweepTable(ExperimentContext &context, SuiteRunner &runner,
           const std::string &title, InterleaveKind interleave,
           unsigned max_p)
{
    const auto &avg = benchmarkGroups().avg;
    ResultTable table(title, "assoc");
    for (unsigned p = 0; p <= max_p; ++p)
        table.addColumn("p=" + std::to_string(p));

    // One call per associativity: fusing the rows measured no faster
    // and raised the peak RSS 1.6-2.5x.
    for (unsigned ways : {0u, 1u, 2u, 4u}) {
        const std::string row =
            ways == 0 ? "tagless" : "assoc" + std::to_string(ways);
        std::vector<SweepColumn> columns;
        for (unsigned p = 0; p <= max_p; ++p) {
            columns.push_back(
                {"p=" + std::to_string(p), [p, ways, interleave]() {
                     return std::make_unique<TwoLevelPredictor>(
                         config4k(p, ways, interleave));
                 }});
        }
        const GridResult grid =
            runner.run({columns}, context.session()).front();
        for (const auto &column : columns) {
            table.set(row, column.label,
                      grid.average(column.label, avg));
        }
    }
    context.emit(table);
}

} // namespace

const ibp::ExperimentDef &
fig12Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig12", "Interleaving vs concatenation (Figures 12-15)", [](ExperimentContext &context) {
            auto runner = SuiteRunner::avgSuite(false, context.config());
            const auto &avg = benchmarkGroups().avg;
            const unsigned max_p = context.quick() ? 6 : 12;

            sweepTable(context, runner,
                       "Figure 12: 4096-entry table, concatenated "
                       "target bits, AVG misprediction (%)",
                       InterleaveKind::Concat, max_p);
            context.note("Paper anchor: saw-tooth - 1-way p=2 is far "
                         "worse than p=1 under concatenation.");

            sweepTable(context, runner,
                       "Figure 14: 4096-entry table, reverse "
                       "interleaving, AVG misprediction (%)",
                       InterleaveKind::Reverse, max_p);
            context.note("Paper anchor: interleaving repairs the "
                         "saw-tooth; higher associativity helps at "
                         "every path length.");

            // Figure 15 schemes, 1-way 4096 entries.
            ResultTable schemes(
                "Interleaving schemes (Figure 15), 4096-entry 1-way, "
                "AVG misprediction (%)",
                "scheme");
            const std::vector<unsigned> ps = {2, 4, 6, 8};
            for (unsigned p : ps)
                schemes.addColumn("p=" + std::to_string(p));
            // One call per scheme, like the tables above.
            for (const InterleaveKind kind :
                 {InterleaveKind::Straight, InterleaveKind::Reverse,
                  InterleaveKind::PingPong}) {
                std::vector<SweepColumn> columns;
                for (unsigned p : ps) {
                    columns.push_back(
                        {"p=" + std::to_string(p), [p, kind]() {
                             return std::make_unique<
                                 TwoLevelPredictor>(
                                 config4k(p, 1, kind));
                         }});
                }
                const GridResult grid =
                    runner.run({columns}, context.session()).front();
                for (const auto &column : columns) {
                    schemes.set(toString(kind), column.label,
                                grid.average(column.label, avg));
                }
            }
            context.emit(schemes);
            context.note("Paper anchor: reverse interleaving is "
                         "slightly best on average.");

            // Utilisation observation (section 5.2.1), ixx at p=4,
            // 1024-entry 1-way.
            ResultTable util("Table utilisation, ixx, 1024-entry "
                             "1-way, p=4 (section 5.2.1)",
                             "assembly");
            util.addColumn("utilisation%");
            for (const InterleaveKind kind :
                 {InterleaveKind::Concat, InterleaveKind::Reverse}) {
                TwoLevelConfig config = paperTwoLevel(
                    4, TableSpec::setAssoc(1024, 1));
                config.pattern.interleave = kind;
                TwoLevelPredictor predictor(config);
                const SimResult result =
                    simulate(predictor, runner.trace("ixx"));
                util.set(toString(kind), "utilisation%",
                         100.0 * result.utilisation());
            }
            context.emit(util);
            context.note("Paper anchor: interleaving raises ixx "
                         "utilisation from 50% to 79%.");
            (void)avg;
        }});
    return def;
}
