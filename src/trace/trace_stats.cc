#include "trace/trace_stats.hh"

#include <algorithm>
#include <unordered_map>

#include "trace/trace_block.hh"
#include "util/stats.hh"

namespace ibp {

std::map<Addr, std::uint64_t>
siteExecutionCounts(const Trace &trace)
{
    std::map<Addr, std::uint64_t> counts;
    TraceBlockCursor cursor(trace);
    TraceBlock block;
    while (cursor.next(block)) {
        for (std::size_t i = 0; i < block.count; ++i) {
            if (branchMetaIsPredictedIndirect(block.meta[i]))
                ++counts[block.pc[i]];
        }
    }
    return counts;
}

TraceStats
computeTraceStats(const Trace &trace)
{
    TraceStats stats;
    stats.name = trace.name();
    stats.totalRecords = trace.size();

    // Per-site target histograms.
    struct SiteAccum
    {
        std::uint64_t executions = 0;
        std::unordered_map<Addr, std::uint64_t> targets;
    };
    std::map<Addr, SiteAccum> sites;

    // Blocks, not records(): a columnar trace stays zero-copy.
    TraceBlockCursor cursor(trace);
    TraceBlock block;
    while (cursor.next(block)) {
        for (std::size_t i = 0; i < block.count; ++i) {
            const BranchKind kind = branchMetaKind(block.meta[i]);
            switch (kind) {
              case BranchKind::Conditional:
                ++stats.conditionalBranches;
                break;
              case BranchKind::Return:
                ++stats.returns;
                break;
              case BranchKind::IndirectCall:
              case BranchKind::IndirectJump:
              case BranchKind::IndirectSwitch:
                ++stats.indirectBranches;
                if (kind == BranchKind::IndirectCall)
                    ++stats.virtualCalls;
                auto &site = sites[block.pc[i]];
                ++site.executions;
                ++site.targets[block.target[i]];
                break;
            }
        }
    }

    stats.condPerIndirect =
        stats.indirectBranches
            ? static_cast<double>(stats.conditionalBranches) /
                  static_cast<double>(stats.indirectBranches)
            : 0.0;
    stats.virtualCallFraction =
        stats.indirectBranches
            ? static_cast<double>(stats.virtualCalls) /
                  static_cast<double>(stats.indirectBranches)
            : 0.0;

    std::vector<std::uint64_t> execution_counts;
    execution_counts.reserve(sites.size());
    double poly_weighted = 0.0;
    for (const auto &[pc, accum] : sites) {
        SiteStats site;
        site.pc = pc;
        site.executions = accum.executions;
        site.distinctTargets =
            static_cast<unsigned>(accum.targets.size());
        std::uint64_t dominant = 0;
        for (const auto &[target, count] : accum.targets)
            dominant = std::max(dominant, count);
        site.dominantTargetShare =
            accum.executions
                ? static_cast<double>(dominant) /
                      static_cast<double>(accum.executions)
                : 0.0;
        stats.sites.push_back(site);
        execution_counts.push_back(accum.executions);
        poly_weighted += static_cast<double>(site.distinctTargets) *
                         static_cast<double>(accum.executions);
    }
    std::sort(stats.sites.begin(), stats.sites.end(),
              [](const SiteStats &a, const SiteStats &b) {
                  return a.executions > b.executions;
              });

    stats.activeSites90 = coverageCount(execution_counts, 0.90);
    stats.activeSites95 = coverageCount(execution_counts, 0.95);
    stats.activeSites99 = coverageCount(execution_counts, 0.99);
    stats.activeSites100 = coverageCount(execution_counts, 1.00);
    stats.meanPolymorphism =
        stats.indirectBranches
            ? poly_weighted / static_cast<double>(stats.indirectBranches)
            : 0.0;

    return stats;
}

} // namespace ibp
