/**
 * @file
 * Reproduces the paper's negative results (sections 3.3 and 4.1) as
 * an ablation bench:
 *
 *  - including the branch address alongside each target in the
 *    history (inferior for any p);
 *  - including taken conditional-branch targets in the history
 *    (pushes relevant indirect targets out of the pattern);
 *  - omitting the branch address from the key (p=8: 6.0% -> 9.6%);
 *  - fold-xor and shift-xor target compression (no reliable win
 *    over plain bit selection, more logic);
 *  - updating the target on every miss instead of the
 *    two-bit-counter rule (worse nearly everywhere, section 3.1).
 */

#include <memory>

#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "suites.hh"

using namespace ibp;

const ibp::ExperimentDef &
ablVariationsExperiment()
{
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "abl_variations", "Rejected design variants (sections "
        "3.3/4.1)", [](ExperimentContext &context) {
            // Conditional records are needed by the
            // conditional-targets variant.
            SuiteRunner runner(benchmarkGroups().avg, true, context.config());

            const unsigned p = context.quick() ? 4 : 8;

            const auto baseline = [p]() {
                return std::make_unique<TwoLevelPredictor>(
                    unconstrainedTwoLevel(p));
            };
            const std::vector<SweepColumn> columns = {
                {"baseline", baseline},
                {"addr-in-hist",
                 [p]() {
                     TwoLevelConfig config = unconstrainedTwoLevel(p);
                     config.historyElement =
                         HistoryElement::TargetAndAddress;
                     return std::make_unique<TwoLevelPredictor>(
                         config);
                 }},
                {"cond-in-hist",
                 [p]() {
                     TwoLevelConfig config = unconstrainedTwoLevel(p);
                     config.includeConditionalTargets = true;
                     return std::make_unique<TwoLevelPredictor>(
                         config);
                 }},
                {"no-addr",
                 [p]() {
                     TwoLevelConfig config = unconstrainedTwoLevel(p);
                     config.pattern.includeBranchAddress = false;
                     return std::make_unique<TwoLevelPredictor>(
                         config);
                 }},
                {"fold-xor",
                 [p]() {
                     TwoLevelConfig config = paperTwoLevel(
                         p, TableSpec::unconstrained());
                     config.pattern.compressor =
                         CompressorKind::FoldXor;
                     return std::make_unique<TwoLevelPredictor>(
                         config);
                 }},
                {"shift-xor",
                 [p]() {
                     TwoLevelConfig config = paperTwoLevel(
                         p, TableSpec::unconstrained());
                     config.pattern.compressor =
                         CompressorKind::ShiftXor;
                     return std::make_unique<TwoLevelPredictor>(
                         config);
                 }},
                {"bit-select",
                 [p]() {
                     return std::make_unique<TwoLevelPredictor>(
                         paperTwoLevel(p,
                                       TableSpec::unconstrained()));
                 }},
                {"no-2bc",
                 [p]() {
                     TwoLevelConfig config = unconstrainedTwoLevel(p);
                     config.hysteresis = false;
                     return std::make_unique<TwoLevelPredictor>(
                         config);
                 }},
            };

            const GridResult grid =
                runner.run({columns}, context.session()).front();
            context.emit(runner.groupTable(
                "Rejected variants, p=" + std::to_string(p) +
                    ", unconstrained (misprediction %)",
                grid, columns));
            context.note(
                "Paper anchors: every variant loses to the baseline "
                "- omitting the branch address costs ~3.6% absolute "
                "at p=8; conditional targets crowd out indirect "
                "history; fold/shift-xor do not beat bit selection; "
                "updating on every miss is worse.");
        }});
    return def;
}
