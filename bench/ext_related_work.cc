/**
 * @file
 * Related-work comparison (section 7 + a modern epilogue): the
 * paper's best practical predictors against
 *
 *  - the Target Cache of Chang, Hao & Patt [CHP97], which indexes a
 *    tagless table with a gshare-style *conditional-outcome*
 *    history (the paper reports ~30.9% for gcc with gshare(9) at 512
 *    entries vs 26.4% for its own best 512-entry hybrid);
 *  - a cascaded / PPM-style predictor [CCM96] with filtered
 *    allocation, which the paper notes a hybrid can mimic;
 *  - an ITTAGE-style predictor with geometric history lengths, the
 *    modern descendant of this design.
 *
 * All predictors get comparable total entry budgets.
 */

#include <memory>

#include "core/btb.hh"
#include "core/cascaded.hh"
#include "core/factory.hh"
#include "core/ittage.hh"
#include "core/target_cache.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
extRelatedWorkExperiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "ext_related", "Related-work comparison (section 7)", [](ExperimentContext &context) {
            // Conditional records are needed by the Target Cache.
            SuiteRunner runner(benchmarkGroups().avg, true, context.config());

            const std::uint64_t budget =
                context.quick() ? 512 : 2048;

            const std::vector<SweepColumn> columns = {
                {"btb-2bc",
                 [budget]() {
                     return std::make_unique<BtbPredictor>(
                         TableSpec::fullyAssoc(budget), true);
                 }},
                {"target-cache",
                 [budget]() {
                     TargetCacheConfig config;
                     config.historyBits = 9;
                     config.table = TableSpec::tagless(budget);
                     return std::make_unique<TargetCachePredictor>(
                         config);
                 }},
                {"2lev-4way",
                 [budget]() {
                     return std::make_unique<TwoLevelPredictor>(
                         paperTwoLevel(3,
                                       TableSpec::setAssoc(budget,
                                                           4)));
                 }},
                {"hybrid",
                 [budget]() {
                     return std::make_unique<HybridPredictor>(
                         paperHybrid(3, 1,
                                     TableSpec::setAssoc(budget / 2,
                                                         4)));
                 }},
                {"cascaded",
                 [budget]() {
                     return std::make_unique<CascadedPredictor>(
                         CascadedConfig::classic(budget));
                 }},
                {"ittage",
                 [budget]() {
                     IttageConfig config;
                     config.baseEntries = budget / 4;
                     config.componentEntries = (budget * 3 / 4) / 4;
                     // Round component tables to a power of two.
                     std::uint64_t rounded = 1;
                     while (rounded * 2 <= config.componentEntries)
                         rounded *= 2;
                     config.componentEntries = rounded;
                     return std::make_unique<IttagePredictor>(config);
                 }},
            };

            const GridResult grid =
                runner.run({columns}, context.session()).front();
            context.emit(runner.benchmarkTable(
                "Related-work predictors at ~" +
                    std::to_string(budget) +
                    " total entries (misprediction %)",
                grid, columns));
            context.note(
                "Expected shape: path-based two-level beats the "
                "conditional-history Target Cache (the paper's core "
                "claim); the hybrid and cascaded designs lead the "
                "1998 field; ITTAGE shows what another decade of "
                "refinement (tags, geometric histories, useful "
                "counters) buys.");
        }});
    return def;
}
