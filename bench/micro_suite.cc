/**
 * @file
 * The BENCH_micro experiment: whole-cell simulate() throughput of a
 * Figure-18-style predictor mix, plus the per-column vs fused
 * comparison on the Figure-17 row sweep. Lives
 * in the suites library - separate from the google-benchmark loops
 * in micro_throughput.cc - so the ibpd daemon can serve it like any
 * paper experiment.
 *
 * The whole-cell mix is recorded into the telemetry, so the
 * artifact's branches_per_second is its aggregate and CI can hold it
 * to a floor with report_diff --min-throughput.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/btb.hh"
#include "core/factory.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "synth/benchmark_suite.hh"
#include "util/format.hh"

#include "suites.hh"

namespace {

const ibp::Trace &
benchTrace()
{
    static const ibp::Trace trace = [] {
        ibp::GeneratorOptions options;
        options.events = 100000;
        return ibp::generateTrace(ibp::benchmarkProfile("porky"),
                                  options);
    }();
    return trace;
}

struct MixCell
{
    std::string label;
    std::function<std::unique_ptr<ibp::IndirectPredictor>()> make;
};

/** The Figure-18 organisations at 4K entries plus BTB and hybrid. */
std::vector<MixCell>
fig18Mix()
{
    using namespace ibp;
    return {
        {"btb",
         [] {
             return std::make_unique<BtbPredictor>(
                 TableSpec::fullyAssoc(4096), true);
         }},
        {"unconstrained",
         [] {
             return std::make_unique<TwoLevelPredictor>(
                 unconstrainedTwoLevel(6));
         }},
        {"tagless",
         [] {
             return std::make_unique<TwoLevelPredictor>(
                 paperTwoLevel(3, TableSpec::tagless(4096)));
         }},
        {"assoc4",
         [] {
             return std::make_unique<TwoLevelPredictor>(
                 paperTwoLevel(3, TableSpec::setAssoc(4096, 4)));
         }},
        {"fullassoc",
         [] {
             return std::make_unique<TwoLevelPredictor>(
                 paperTwoLevel(3, TableSpec::fullyAssoc(4096)));
         }},
        {"hybrid",
         [] {
             return std::make_unique<HybridPredictor>(paperHybrid(
                 3, 1, TableSpec::setAssoc(2048, 4)));
         }},
    };
}

/**
 * The Figure-17 row sweep the fused kernel exists for: p1=3 against
 * every p2 in 0..12, 4-way component tables - 13 columns sharing one
 * benchmark trace and (for the two-level first levels) one history
 * specification group. The diagonal cell (p2 == 3) is the paper's
 * non-hybrid predictor of twice the component size.
 */
std::vector<MixCell>
fig17Row()
{
    using namespace ibp;
    std::vector<MixCell> cells;
    for (unsigned p2 = 0; p2 <= 12; ++p2) {
        const std::string label = "p2=" + std::to_string(p2);
        if (p2 == 3) {
            cells.push_back({label, [] {
                                 return std::make_unique<
                                     TwoLevelPredictor>(paperTwoLevel(
                                     3,
                                     TableSpec::setAssoc(4096, 4)));
                             }});
        } else {
            cells.push_back(
                {label, [p2] {
                     return std::make_unique<HybridPredictor>(
                         paperHybrid(3, p2,
                                     TableSpec::setAssoc(2048, 4)));
                 }});
        }
    }
    return cells;
}

/**
 * Best-of-@p reps whole-cell simulate() run. Fresh predictor per
 * rep (cold tables every time, like a real sweep cell); best rather
 * than mean discards scheduler noise.
 */
ibp::SimResult
bestOf(const MixCell &cell, unsigned reps)
{
    ibp::SimResult best;
    for (unsigned rep = 0; rep < reps; ++rep) {
        auto predictor = cell.make();
        const ibp::SimResult result =
            ibp::simulate(*predictor, benchTrace());
        if (rep == 0 || result.seconds < best.seconds)
            best = result;
    }
    return best;
}

} // namespace

const ibp::ExperimentDef &
microThroughputExperiment()
{
    using namespace ibp;
    static const ibp::ExperimentDef &def =
        ibp::registerExperiment({
        "BENCH_micro",
        "Simulation throughput: whole-cell mix and fig17-row engines",
        [](ExperimentContext &context) {
            const unsigned reps = context.quick() ? 2 : 3;
            const auto mix = fig18Mix();

            ResultTable table(
                "Whole-cell throughput on porky-100k (Mbranches/s)",
                "predictor");
            table.addColumn("Mbranches/s");

            double mix_seconds = 0.0;
            for (const MixCell &cell : mix) {
                const SimResult result = bestOf(cell, reps);
                table.set(cell.label, "Mbranches/s",
                          static_cast<double>(result.branches) /
                              result.seconds / 1e6);

                // The artifact's branches_per_second is then the mix
                // aggregate, which the CI throughput floor gates.
                CellMetrics recorded;
                recorded.column = cell.label;
                recorded.benchmark = "porky-100k";
                recorded.branches = result.branches;
                recorded.seconds = result.seconds;
                recorded.groupSeconds = result.groupSeconds;
                recorded.tableOccupancy = result.tableOccupancy;
                recorded.tableCapacity = result.tableCapacity;
                context.metrics().recordCell(recorded);
                mix_seconds += result.seconds;
            }
            context.metrics().recordRunWindow(mix_seconds);
            context.emit(table);

            // ---------------------------------------------------
            // The fig17 hybrid-grid mix, two ways: per-column (13
            // one-column traversals) and fused (one traversal whose
            // sweep kernel shares the histories, deduplicates key
            // builds and replicates the p1 components). Counters
            // are bit-identical either way
            // (tests/oracle/engine_oracle_test.cc); only the time
            // differs, and fused-over-per-column is what sharing a
            // traversal banks on real sweeps.
            const auto row = fig17Row();
            double solo_seconds = 0.0;
            std::uint64_t row_branches = 0;
            for (const MixCell &cell : row) {
                const SimResult solo = bestOf(cell, reps);
                solo_seconds += solo.seconds;
                row_branches += solo.branches;
            }
            double fused_seconds = 0.0;
            unsigned deduped = 0;
            for (unsigned rep = 0; rep < reps; ++rep) {
                std::vector<std::unique_ptr<IndirectPredictor>>
                    predictors;
                std::vector<IndirectPredictor *> raw;
                for (const MixCell &cell : row) {
                    predictors.push_back(cell.make());
                    raw.push_back(predictors.back().get());
                }
                TraversalStats traversal;
                SimOptions options;
                options.traversal = &traversal;
                const double seconds =
                    simulateMany(raw, benchTrace(), options)
                        .front()
                        .groupSeconds;
                deduped = traversal.predictorsDeduped;
                if (rep == 0 || seconds < fused_seconds)
                    fused_seconds = seconds;
            }
            ResultTable fig17_table(
                "Figure-17 row sweep (p1=3, 13 columns) on "
                "porky-100k: per-column vs fused",
                "engine");
            fig17_table.addColumn("seconds");
            fig17_table.addColumn("Mbranches/s");
            fig17_table.addColumn("speedup");
            const auto rate = [row_branches](double seconds) {
                return static_cast<double>(row_branches) /
                       std::max(seconds, 1e-12) / 1e6;
            };
            const double speedup =
                solo_seconds / std::max(fused_seconds, 1e-12);
            fig17_table.set("per-column", "seconds", solo_seconds);
            fig17_table.set("per-column", "Mbranches/s",
                            rate(solo_seconds));
            fig17_table.set("per-column", "speedup", 1.0);
            fig17_table.set("fused", "seconds", fused_seconds);
            fig17_table.set("fused", "Mbranches/s",
                            rate(fused_seconds));
            fig17_table.set("fused", "speedup", speedup);
            context.emit(fig17_table);
            context.note(
                "Fused fig17 row: " + formatFixed(speedup, 2) +
                "x aggregate throughput vs 13 per-column traversals "
                "(shared first-level histories, deduplicated key "
                "builds, " +
                std::to_string(deduped) + " replicated columns).");

            // ---------------------------------------------------
            // The grid sharder's cell-claim layer (docs/SERVICE.md):
            // flock-backed claim round-trips, durable entry stores
            // (tmp+fsync+rename), warm loads, and contended-claim
            // probes on a throwaway store. These rates bound the
            // per-cell coordination overhead a sharded fan-out pays
            // on top of the simulation itself. CI's micro tolerances
            // gate the table's structure, not the exact rates (pure
            // filesystem noise on shared runners).
            char claim_dir[] = "/tmp/ibpmicroclaimXXXXXX";
            if (::mkdtemp(claim_dir) != nullptr) {
                const ResultStore store{std::string(claim_dir)};
                const auto kops = [](std::size_t ops,
                                     double seconds) {
                    return static_cast<double>(ops) /
                           std::max(seconds, 1e-12) / 1e3;
                };
                const auto since =
                    [](std::chrono::steady_clock::time_point then) {
                        return std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   then)
                            .count();
                    };
                ResultTable claim_table(
                    "Cell-claim layer on a throwaway store (kops/s)",
                    "operation");
                claim_table.addColumn("kops/s");

                const std::size_t claim_ops = 2048;
                auto t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < claim_ops; ++i) {
                    CellClaim claim = store.tryClaim("bench-claim");
                    claim.release();
                }
                claim_table.set("claim-roundtrip", "kops/s",
                                kops(claim_ops, since(t0)));

                const std::size_t store_ops = 128;
                StoredResult cell;
                cell.benchmark = "porky-100k";
                cell.predictor = "bench";
                cell.branches = 100000;
                cell.misses = 12345;
                t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < store_ops; ++i) {
                    (void)store.store(
                        "bench-cell-" + std::to_string(i), cell);
                }
                claim_table.set("store-put", "kops/s",
                                kops(store_ops, since(t0)));

                std::size_t hits = 0;
                t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < store_ops; ++i) {
                    hits += store
                                .load("bench-cell-" +
                                      std::to_string(i))
                                    .status ==
                            ResultStore::LoadStatus::Hit;
                }
                claim_table.set("load-hit", "kops/s",
                                kops(store_ops, since(t0)));

                CellClaim held = store.tryClaim("bench-contended");
                t0 = std::chrono::steady_clock::now();
                for (std::size_t i = 0; i < claim_ops; ++i) {
                    const CellClaim probe =
                        store.tryClaim("bench-contended");
                    (void)probe;
                }
                claim_table.set("busy-probe", "kops/s",
                                kops(claim_ops, since(t0)));
                held.release();

                context.emit(claim_table);
                context.note(
                    "Cell-claim coordination: " +
                    std::to_string(hits) + "/" +
                    std::to_string(store_ops) +
                    " warm loads hit; claim round-trip and busy "
                    "probe are flock(2) on a sidecar, store-put "
                    "pays the durable tmp+fsync+rename path.");
                std::error_code ec;
                std::filesystem::remove_all(claim_dir, ec);
            }
        }});
    return def;
}
