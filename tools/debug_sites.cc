/**
 * @file
 * Developer tool: per-site BTB-2bc behaviour of one benchmark.
 * Prints the hottest sites with their execution counts, distinct
 * targets, dominant-target share and BTB miss rate, to see where a
 * calibration target is being won or lost.
 */

#include <cstdio>
#include <string>
#include <unordered_map>

#include "core/btb.hh"
#include "sim/simulator.hh"
#include "synth/benchmark_suite.hh"
#include "trace/trace_stats.hh"

namespace {

/** Forwards to a wrapped predictor and counts its misses per site. */
class SiteMissCounter : public ibp::IndirectPredictor
{
  public:
    explicit SiteMissCounter(ibp::IndirectPredictor &inner)
        : _inner(inner)
    {
    }

    ibp::Prediction
    predict(ibp::Addr pc) override
    {
        _last = _inner.predict(pc);
        return _last;
    }

    void
    update(ibp::Addr pc, ibp::Addr actual) override
    {
        if (!_last.correctFor(actual))
            ++_misses[pc];
        _inner.update(pc, actual);
    }

    void reset() override { _inner.reset(); }
    std::string name() const override { return _inner.name(); }
    std::uint64_t tableCapacity() const override
    {
        return _inner.tableCapacity();
    }
    std::uint64_t tableOccupancy() const override
    {
        return _inner.tableOccupancy();
    }

    std::uint64_t
    misses(ibp::Addr pc) const
    {
        const auto it = _misses.find(pc);
        return it == _misses.end() ? 0 : it->second;
    }

  private:
    ibp::IndirectPredictor &_inner;
    ibp::Prediction _last;
    std::unordered_map<ibp::Addr, std::uint64_t> _misses;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "beta";
    const ibp::Trace trace = ibp::generateBenchmarkTrace(name);
    const ibp::TraceStats stats = ibp::computeTraceStats(trace);

    ibp::BtbPredictor btb(ibp::TableSpec::unconstrained(), true);
    SiteMissCounter site_misses(btb);
    const ibp::SimResult result = ibp::simulate(site_misses, trace);

    std::printf("%s: btb-2bc miss %.2f%%\n", name.c_str(),
                result.missPercent());
    std::printf("%10s %9s %8s %9s %9s\n", "pc", "execs", "targets",
                "domshare", "btbmiss%");
    unsigned shown = 0;
    for (const auto &site : stats.sites) {
        if (shown++ >= 20)
            break;
        const double miss =
            100.0 *
            static_cast<double>(site_misses.misses(site.pc)) /
            static_cast<double>(
                std::max<std::uint64_t>(1, site.executions));
        std::printf("0x%08x %9llu %8u %9.2f %9.2f\n", site.pc,
                    static_cast<unsigned long long>(site.executions),
                    site.distinctTargets, site.dominantTargetShare,
                    miss);
    }
    return 0;
}
