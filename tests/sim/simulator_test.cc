/**
 * @file
 * Tests of the trace-driven simulator: miss accounting, exclusion of
 * returns, the conditional-forwarding contract, warm-up windows, and
 * the kernel-lifetime contract of a one-column run.
 */

#include <gtest/gtest.h>

#include "core/btb.hh"
#include "core/factory.hh"
#include "sim/simulator.hh"

namespace ibp {
namespace {

/** A predictor that always predicts a fixed target and counts the
 *  conditionals it is offered; @p declares says whether it claims
 *  them through consumesConditionals(). */
class FixedPredictor : public IndirectPredictor
{
  public:
    explicit FixedPredictor(Addr target, bool declares = true)
        : _target(target), _declares(declares)
    {
    }

    Prediction
    predict(Addr) override
    {
        return Prediction{true, _target, 0};
    }
    void update(Addr, Addr) override {}
    void
    observeConditional(Addr, bool, Addr) override
    {
        ++conditionalsSeen;
    }
    bool consumesConditionals() const override { return _declares; }
    void reset() override {}
    std::string name() const override { return "fixed"; }
    std::uint64_t tableCapacity() const override { return 0; }
    std::uint64_t tableOccupancy() const override { return 0; }

    unsigned conditionalsSeen = 0;

  private:
    Addr _target;
    bool _declares;
};

Trace
mixedTrace()
{
    Trace trace("mixed");
    trace.append({0x100, 0xA0, BranchKind::IndirectCall, true});
    trace.append({0x104, 0x108, BranchKind::Conditional, true});
    trace.append({0x100, 0xB0, BranchKind::IndirectJump, true});
    trace.append({0x200, 0xA0, BranchKind::IndirectSwitch, true});
    trace.append({0x300, 0x90, BranchKind::Return, true});
    trace.append({0x100, 0xA0, BranchKind::IndirectCall, true});
    return trace;
}

TEST(Simulator, CountsOnlyPredictedIndirectBranches)
{
    FixedPredictor predictor(0xA0);
    const SimResult result = simulate(predictor, mixedTrace());
    EXPECT_EQ(result.branches, 4u); // returns & conditionals excluded
    EXPECT_EQ(result.misses, 1u);   // only the 0xB0 jump
    EXPECT_EQ(result.noPrediction, 0u);
    EXPECT_NEAR(result.missPercent(), 25.0, 1e-9);
}

TEST(Simulator, ForwardsConditionalsToThePredictor)
{
    FixedPredictor predictor(0xA0);
    simulate(predictor, mixedTrace());
    EXPECT_EQ(predictor.conditionalsSeen, 1u);
}

TEST(Simulator, UndeclaredPredictorSeesNoConditionals)
{
    // The forwarding contract (core/predictor.hh): conditionals reach
    // only predictors that declare consumesConditionals() - also when
    // a declared consumer in the same traversal keeps them flowing.
    FixedPredictor undeclared(0xA0, false);
    simulate(undeclared, mixedTrace());
    EXPECT_EQ(undeclared.conditionalsSeen, 0u);

    FixedPredictor declared(0xA0);
    IndirectPredictor *both[] = {&undeclared, &declared};
    simulateMany(both, mixedTrace());
    EXPECT_EQ(undeclared.conditionalsSeen, 0u);
    EXPECT_EQ(declared.conditionalsSeen, 1u);
}

TEST(Simulator, ColdMissesCountAsNoPrediction)
{
    BtbPredictor btb;
    const SimResult result = simulate(btb, mixedTrace());
    // 0x100 cold, then B0 vs stored A0 (miss, replaced), 0x200
    // cold, and the final 0x100->A0 misses against the stored B0.
    EXPECT_EQ(result.branches, 4u);
    EXPECT_EQ(result.misses, 4u);
    EXPECT_EQ(result.noPrediction, 2u);
}

TEST(Simulator, WarmupWindowExcludesEarlyBranches)
{
    FixedPredictor predictor(0xA0);
    SimOptions options;
    options.warmupBranches = 2;
    const SimResult result =
        simulate(predictor, mixedTrace(), options);
    EXPECT_EQ(result.branches, 2u); // the switch and the last call
    EXPECT_EQ(result.misses, 0u);
}

TEST(Simulator, ResultCarriesNamesAndOccupancy)
{
    BtbPredictor btb;
    const SimResult result = simulate(btb, mixedTrace());
    EXPECT_EQ(result.benchmark, "mixed");
    EXPECT_EQ(result.predictor, "btb");
    EXPECT_EQ(result.tableOccupancy, 2u);
}

TEST(Simulator, EmptyTraceYieldsZeroRates)
{
    BtbPredictor btb;
    const SimResult result = simulate(btb, Trace("empty"));
    EXPECT_EQ(result.branches, 0u);
    EXPECT_EQ(result.missPercent(), 0.0);
}

TEST(Simulator, UtilisationIsOccupancyOverCapacity)
{
    BtbPredictor btb(TableSpec::setAssoc(8, 1), false);
    const SimResult result = simulate(btb, mixedTrace());
    EXPECT_EQ(result.tableCapacity, 8u);
    EXPECT_NEAR(result.utilisation(),
                static_cast<double>(result.tableOccupancy) / 8.0,
                1e-12);
}

/** A trace long enough to train a two-level table and its history. */
Trace
loopTrace()
{
    Trace trace("loop");
    for (unsigned i = 0; i < 4000; ++i) {
        trace.append({0x100 + (i % 7) * 4, 0xA0 + (i % 5) * 16,
                      BranchKind::IndirectCall, true});
    }
    return trace;
}

TEST(Simulator, PredictorOutlivesTheCallKernel)
{
    // The kernel-lifetime contract: a run binds its predictors to a
    // kernel that dies with the call, so nothing may point into it
    // afterwards (ASan-checked in CI), and a reset() predictor runs
    // again exactly like a fresh one. The duplicate column and the
    // hybrid's equal components exercise the replica bindings.
    const Trace trace = loopTrace();
    for (const char *spec :
         {"twolevel:p=3,table=assoc4:256",
          "hybrid:p1=2,p2=2,table=assoc2:256,conf=2",
          "hybrid:p1=3,p2=6,table=assoc2:256,meta=selector"}) {
        const auto primary = makePredictorFromSpec(spec);
        const auto replica = makePredictorFromSpec(spec);
        IndirectPredictor *both[] = {primary.get(), replica.get()};
        const std::vector<SimResult> first =
            simulateMany(both, trace);
        for (IndirectPredictor *predictor : both) {
            (void)predictor->predict(0x100);
            predictor->update(0x100, 0xA0);
            (void)predictor->tableOccupancy();
        }

        primary->reset();
        const SimResult again = simulate(*primary, trace);
        (void)primary->predict(0x104);
        const auto fresh = makePredictorFromSpec(spec);
        const SimResult cold = simulate(*fresh, trace);
        EXPECT_EQ(again.misses, cold.misses) << spec;
        EXPECT_EQ(again.tableOccupancy, cold.tableOccupancy) << spec;
        EXPECT_EQ(first[0].misses, cold.misses) << spec;
        EXPECT_EQ(first[1].misses, cold.misses) << spec;
        EXPECT_GT(cold.branches, 0u);
    }
}

} // namespace
} // namespace ibp
