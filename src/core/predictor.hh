/**
 * @file
 * The indirect-branch predictor interface.
 *
 * The simulator drives every predictor with the same trace-driven
 * protocol the paper uses for each dynamic indirect branch:
 *
 *   1. predict(pc)      - consult tables/history, produce a target;
 *   2. update(pc, t)    - the branch resolved to t; update tables
 *                         (subject to the 2-bit-counter hysteresis
 *                         rule), confidence counters and history.
 *
 * Conditional branches are offered via observeConditional() to the
 * predictors that declare consumesConditionals() - the Target Cache
 * baseline and the section 3.3 "conditional targets in the history"
 * variant; the rest never see them.
 *
 * A run may bind a predictor to a sweep kernel for its duration
 * (joinSweepKernel); its first-level history then lives in the
 * kernel and is gone when the run ends. reset() before reusing a
 * predictor in another run.
 */

#ifndef IBP_CORE_PREDICTOR_HH
#define IBP_CORE_PREDICTOR_HH

#include <string>

#include "util/bits.hh"

namespace ibp {

class SweepKernel;

/** Outcome of a prediction lookup. */
struct Prediction
{
    /** False when the predictor has no entry for this branch. */
    bool valid = false;
    /** Predicted target (meaningful only when valid). */
    Addr target = 0;
    /**
     * Metaprediction confidence of the entry that produced the
     * target; -1 when there is no prediction. Used by hybrid
     * predictors to choose among components.
     */
    int confidence = -1;

    /** A miss is a wrong target or no prediction at all. */
    bool
    correctFor(Addr actual) const
    {
        return valid && target == actual;
    }
};

class IndirectPredictor
{
  public:
    virtual ~IndirectPredictor() = default;

    /** Predict the target of the indirect branch at @p pc. */
    virtual Prediction predict(Addr pc) = 0;

    /** Commit the resolved target of the branch at @p pc. */
    virtual void update(Addr pc, Addr actual) = 0;

    /** Observe a conditional branch (default: ignore). */
    virtual void
    observeConditional(Addr pc, bool taken, Addr target)
    {
        (void)pc;
        (void)taken;
        (void)target;
    }

    /**
     * True when observeConditional() has any observable effect right
     * now (Target Cache; the section 3.3 conditional-history variant
     * while it still owns its history).
     *
     * Contract: the engine (simulateMany(), sim/simulator.hh)
     * forwards conditional records ONLY to predictors that declare
     * this, querying it once per traversal after the sweep-kernel
     * offer - a predictor that overrides observeConditional() but
     * answers false never sees a conditional. The block engine
     * also skips conditional records wholesale when no predictor in
     * the traversal consumes them and no shared history group folds
     * them in, so the answer must reflect the *current* binding
     * state.
     */
    virtual bool consumesConditionals() const { return false; }

    /**
     * Offer this predictor a fused sweep kernel (sweep_kernel.hh):
     * a predictor that accepts delegates its first-level history to
     * the kernel (the simulation loop then calls the kernel's
     * commit/observeConditional instead of per-predictor pushes) and
     * must bind its key recipes via SweepKernel::bind(). Default:
     * decline and keep private history - correct for any family.
     */
    virtual bool
    joinSweepKernel(SweepKernel &kernel)
    {
        (void)kernel;
        return false;
    }

    /** Forget all state (tables, histories, counters). */
    virtual void reset() = 0;

    /** Short configuration description for reports. */
    virtual std::string name() const = 0;

    /** Total second-level entry capacity (0 = unbounded). */
    virtual std::uint64_t tableCapacity() const = 0;

    /** Currently valid second-level entries (table utilisation). */
    virtual std::uint64_t tableOccupancy() const = 0;
};

} // namespace ibp

#endif // IBP_CORE_PREDICTOR_HH
