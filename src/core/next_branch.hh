/**
 * @file
 * Next-branch prediction - the paper's last future-work idea
 * (section 8.1): "A predictor could predict not only the target of
 * a branch but also the address of the next indirect branch to be
 * executed. This disambiguates branches that lie on different
 * conditional control flow paths but share the same indirect branch
 * path, and allows a predictor to run, in principle, arbitrarily
 * far ahead of execution."
 *
 * Entries store a (target, next-branch PC) pair keyed like the
 * unconstrained two-level predictor; a prediction is *fully*
 * correct when both halves match, which is what run-ahead fetch
 * would need. The driver supplies the next indirect branch's PC at
 * update time (see bench/ext_future_work).
 */

#ifndef IBP_CORE_NEXT_BRANCH_HH
#define IBP_CORE_NEXT_BRANCH_HH

#include <string>

#include "core/flat_table.hh"
#include "core/history_register.hh"
#include "core/pattern.hh"
#include "util/sat_counter.hh"

namespace ibp {

/** Joint (target, next indirect branch) prediction. */
struct NextBranchPrediction
{
    bool valid = false;
    Addr target = 0;
    Addr nextPc = 0;
};

class NextBranchPredictor
{
  public:
    /**
     * @param pathLength path length of the (unconstrained,
     *        full-precision) pattern, as in section 3.
     */
    explicit NextBranchPredictor(unsigned pathLength,
                                 bool hysteresis = true);

    /** Predict (target, next indirect branch PC) for @p pc. */
    NextBranchPrediction predict(Addr pc);

    /**
     * Commit a resolved branch: its actual target and the PC of the
     * indirect branch that followed it in the trace.
     */
    void update(Addr pc, Addr actual, Addr next_pc);

    void reset();
    std::string name() const;
    std::size_t entries() const { return _entries.size(); }

  private:
    struct Entry
    {
        Addr target = 0;
        Addr nextPc = 0;
        HysteresisBit hysteresis;
    };

    bool _hysteresis;
    PatternBuilder _builder;
    HistoryRegister _history;
    FlatMap<Key, Entry, KeyHash> _entries;
};

} // namespace ibp

#endif // IBP_CORE_NEXT_BRANCH_HH
