/**
 * @file
 * Developer tool: quick AVG-group shape checks of the paper's key
 * qualitative results (path-length U-curve, history sharing, table
 * sharing, interleaving) before running the full bench suite.
 */

#include <cstdio>
#include <memory>

#include "core/factory.hh"
#include "sim/suite_runner.hh"

using namespace ibp;

int
main()
{
    SuiteRunner runner =
        SuiteRunner::avgSuite(false, RunConfig::fromEnvironment(false));

    // 1. Path-length sweep, unconstrained full precision (Figure 9).
    {
        std::vector<SweepColumn> columns;
        for (unsigned p : {0, 1, 2, 3, 4, 6, 8, 10, 12, 15, 18}) {
            columns.push_back(
                {"p" + std::to_string(p), [p]() {
                     return std::make_unique<TwoLevelPredictor>(
                         unconstrainedTwoLevel(p));
                 }});
        }
        runner.groupTable("Fig9 shape: path length (unconstrained)",
                          runner.run(columns), columns)
            .print();
    }

    // 2. History sharing s (Figure 5), p=8.
    {
        std::vector<SweepColumn> columns;
        for (unsigned s : {2, 6, 10, 14, 18, 22, 32}) {
            columns.push_back(
                {"s" + std::to_string(s), [s]() {
                     return std::make_unique<TwoLevelPredictor>(
                         unconstrainedTwoLevel(8, s));
                 }});
        }
        runner.groupTable("Fig5 shape: history sharing (p=8)",
                          runner.run(columns), columns)
            .print();
    }

    // 3. Table sharing h (Figure 7), p=8 global history.
    {
        std::vector<SweepColumn> columns;
        for (unsigned h : {2, 10, 18, 32}) {
            columns.push_back(
                {"h" + std::to_string(h), [h]() {
                     return std::make_unique<TwoLevelPredictor>(
                         unconstrainedTwoLevel(8, 32, h));
                 }});
        }
        runner.groupTable("Fig7 shape: table sharing (p=8)",
                          runner.run(columns), columns)
            .print();
    }

    // 4. Interleaving vs concatenation, 4096-entry 1-way (Fig 12/14).
    {
        std::vector<SweepColumn> columns;
        for (unsigned p : {1, 2, 3, 4, 6}) {
            for (const auto kind :
                 {InterleaveKind::Concat, InterleaveKind::Reverse}) {
                columns.push_back(
                    {toString(kind).substr(0, 3) + "-p" +
                         std::to_string(p),
                     [p, kind]() {
                         TwoLevelConfig config = paperTwoLevel(
                             p, TableSpec::setAssoc(4096, 1));
                         config.pattern.interleave = kind;
                         return std::make_unique<TwoLevelPredictor>(
                             config);
                     }});
            }
        }
        runner.groupTable("Fig12/14 shape: concat vs reverse, 4K 1-way",
                          runner.run(columns), columns)
            .print();
    }

    // 5. Hybrid vs non-hybrid at same total size (Figure 18).
    {
        std::vector<SweepColumn> columns;
        for (unsigned total : {1024, 8192}) {
            columns.push_back(
                {"2lv-" + std::to_string(total), [total]() {
                     return std::make_unique<TwoLevelPredictor>(
                         paperTwoLevel(3,
                                       TableSpec::setAssoc(total, 4)));
                 }});
            columns.push_back(
                {"hyb-" + std::to_string(total), [total]() {
                     return std::make_unique<HybridPredictor>(
                         paperHybrid(3, 1,
                                     TableSpec::setAssoc(total / 2,
                                                         4)));
                 }});
        }
        runner.groupTable("Fig18 shape: hybrid vs non-hybrid",
                          runner.run(columns), columns)
            .print();
    }

    return 0;
}
