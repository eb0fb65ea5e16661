/**
 * @file
 * Reproduces Figure 16: AVG misprediction rates for tagless, 2-way
 * and 4-way tables across table sizes and path lengths (reverse
 * interleaving, xor key mixing, 2bc update).
 *
 * Paper anchors: higher associativity wins at every size except
 * where *positive interference* lets tagless tables beat 4-way for
 * long paths (many patterns share a target, so an aliased slot still
 * predicts better than a tag miss); the best path length grows with
 * table size (tagless: p=3 from 128 to 8K; 4-way: p=2 at 256..512,
 * p=3 at 1K..4K, p=4 at 8K).
 */

#include <memory>

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
fig16Experiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "fig16", "Associativity x size x path length (Figure 16)", [](ExperimentContext &context) {
            auto runner = SuiteRunner::avgSuite(false, context.config());
            const auto &avg = benchmarkGroups().avg;

            std::vector<std::uint64_t> sizes = {128,  512,  2048,
                                                8192, 32768};
            std::vector<unsigned> path_lengths = {0, 1, 2, 3, 4,
                                                  5, 6, 8, 10, 12};
            if (context.quick()) {
                sizes = {512, 8192};
                path_lengths = {0, 2, 4, 8};
            }

            for (unsigned ways : {0u, 2u, 4u}) {
                const std::string org =
                    ways == 0 ? "tagless"
                              : std::to_string(ways) + "-way";
                ResultTable table("Figure 16 (" + org +
                                      "): AVG misprediction (%)",
                                  "entries");
                for (unsigned p : path_lengths)
                    table.addColumn("p=" + std::to_string(p));

                // One call per organisation, fusing its sizes and
                // path lengths; organisations stay apart, so a
                // traversal never holds two equal-size tables.
                std::vector<std::vector<SweepColumn>> grids;
                for (std::uint64_t size : sizes) {
                    std::vector<SweepColumn> &columns =
                        grids.emplace_back();
                    for (unsigned p : path_lengths) {
                        columns.push_back(
                            {"p=" + std::to_string(p),
                             [p, ways, size]() {
                                 const TableSpec spec =
                                     ways == 0
                                         ? TableSpec::tagless(size)
                                         : TableSpec::setAssoc(size,
                                                               ways);
                                 return std::make_unique<
                                     TwoLevelPredictor>(
                                     paperTwoLevel(p, spec));
                             }});
                    }
                }
                const std::vector<GridResult> results =
                    runner.run(grids, context.session());
                for (std::size_t row = 0; row < sizes.size(); ++row) {
                    for (const auto &column : grids[row]) {
                        table.set(
                            std::to_string(sizes[row]), column.label,
                            results[row].average(column.label, avg));
                    }
                }
                context.emit(table);
            }
            context.note(
                "Paper anchors: best p grows with size; tagless "
                "tables show positive interference at long paths "
                "(sometimes beating 4-way for p >= 7).");
        }});
    return def;
}
