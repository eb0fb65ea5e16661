/**
 * @file
 * The 12-column predictor mix the oracle differentials replay and
 * the thread-count invariance test sweeps. One column per ported
 * structure: BTB over the unconstrained map, BTB over the
 * intrusive-LRU fully associative table, two-level predictors over
 * tagless / set-associative / fully associative / unconstrained
 * second levels (the Figure 18 mix), per-branch history sharing
 * (s=2, the per-set history map and its memo), every interleave kind
 * plus the fold compressor (the scatter-mask assembly), and a hybrid
 * with each meta scheme (the selector map).
 */

#ifndef IBP_TESTS_ORACLE_DIVERSE_COLUMNS_HH
#define IBP_TESTS_ORACLE_DIVERSE_COLUMNS_HH

#include <string>
#include <utility>
#include <vector>

#include "core/factory.hh"
#include "sim/suite_runner.hh"

namespace ibp {

/** (label, predictor spec) of every column. */
inline std::vector<std::pair<std::string, std::string>>
diverseColumnSpecs()
{
    return {
        {"btb", "btb"},
        {"btb-lru", "btb2bc:table=fullassoc:512"},
        {"tagless", "twolevel:p=3,table=tagless:1024"},
        {"assoc4", "twolevel:p=3,table=assoc4:1024"},
        {"fullassoc", "twolevel:p=3,table=fullassoc:256"},
        {"uncon-p6", "twolevel:p=6,table=unconstrained"},
        {"perbranch", "twolevel:p=4,table=assoc2:1024,s=2"},
        {"straight", "twolevel:p=3,table=tagless:2048,interleave=straight"},
        {"pingpong-cat",
         "twolevel:p=4,table=assoc2:2048,interleave=pingpong,mix=concat"},
        {"fold", "twolevel:p=8,table=tagless:4096,compressor=fold"},
        {"hybrid", "hybrid:p1=3,p2=7,table=assoc4:1024,conf=2"},
        {"hybrid-sel", "hybrid:p1=3,p2=7,table=assoc2:1024,meta=selector"},
    };
}

inline std::vector<SweepColumn>
diverseColumns()
{
    std::vector<SweepColumn> columns;
    for (const auto &[label, spec] : diverseColumnSpecs()) {
        columns.push_back(
            {label, [spec]() { return makePredictorFromSpec(spec); }});
    }
    return columns;
}

} // namespace ibp

#endif // IBP_TESTS_ORACLE_DIVERSE_COLUMNS_HH
