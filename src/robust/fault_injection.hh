/**
 * @file
 * Deterministic fault injection for testing the recovery paths.
 *
 * A fault spec arms probabilistic failures at named sites of the
 * harness. It is part of a run's RunConfig (robust/run_config.hh): the
 * CLI reads it from IBP_FAULT_INJECT, and a daemon-served job carries
 * its client's spec. Spec grammar (clauses separated by commas):
 *
 *   spec   := clause ("," clause)*
 *   clause := SITE ":" PROB [":" KIND] | "seed=" N
 *   SITE   := "trace" | "sim" | "fused" | "artifact"
 *                            (free-form; these are the sites wired
 *                             today - see docs/ROBUSTNESS.md)
 *   PROB   := failure probability per attempt, in [0, 1]
 *   KIND   := "transient" (default) | "permanent"
 *           | "crash" | "hang"
 *
 * Examples:
 *
 *   IBP_FAULT_INJECT=sim:0.1                   10% transient sim faults
 *   IBP_FAULT_INJECT=trace:0.05:permanent      5% permanent trace faults
 *   IBP_FAULT_INJECT=sim:0.2,artifact:0.5,seed=7
 *   IBP_FAULT_INJECT=sim:0.05:crash,sim:0.02:hang,seed=3
 *
 * `crash` and `hang` are process-fatal actions for chaos testing the
 * multi-process supervisor (docs/SERVICE.md): instead of throwing,
 * a tripped `crash` clause calls std::abort() and a tripped `hang`
 * clause sleeps for ~an hour while ignoring cooperative
 * cancellation, so only an external SIGKILL (the supervisor's hard
 * deadline) can clear it. Both hash the attempt number like
 * transient faults, so a retried incarnation of the same cell can
 * come up clean.
 *
 * Decisions are a pure hash of (seed, site, key, attempt): two runs
 * with the same spec fault the same cells, and a transient fault can
 * clear on the next attempt because the attempt number feeds the
 * hash (permanent faults ignore it, so they never clear). No global
 * RNG state is consumed, so arming faults cannot perturb the
 * simulated workloads themselves.
 */

#ifndef IBP_ROBUST_FAULT_INJECTION_HH
#define IBP_ROBUST_FAULT_INJECTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "robust/error.hh"

namespace ibp {

/** What a tripped clause does to the calling process. */
enum class FaultAction
{
    Throw, ///< raise RunException (transient/permanent kinds)
    Crash, ///< std::abort() - exercises supervisor crash containment
    Hang,  ///< sleep ~1h ignoring cancellation - needs a hard kill
};

/** One armed site: fail @p probability of attempts with @p kind. */
struct FaultSite
{
    std::string site;
    double probability = 0.0;
    ErrorKind kind = ErrorKind::Transient;
    FaultAction action = FaultAction::Throw;
};

class FaultInjector
{
  public:
    /** A disarmed injector (every check passes). */
    FaultInjector() = default;

    /** Parse a spec; error on bad grammar. */
    static Result<FaultInjector> parse(const std::string &spec);

    bool armed() const { return !_sites.empty(); }

    /** The spec this injector was parsed from ("" = disarmed). */
    const std::string &spec() const { return _spec; }

    /** True when a clause names @p site (fused-path gating: a
     *  sim-armed injector must force the per-cell reference path,
     *  but arming only other sites should not). */
    bool
    armedFor(const std::string &site) const
    {
        for (const FaultSite &armed_site : _sites) {
            if (armed_site.site == site)
                return true;
        }
        return false;
    }

    std::uint64_t seed() const { return _seed; }
    const std::vector<FaultSite> &sites() const { return _sites; }

    /**
     * Decide deterministically whether (site, key, attempt) fails.
     * Throws RunException when it does; returns normally otherwise.
     * A tripped `crash` clause never returns (std::abort); a tripped
     * `hang` clause blocks for ~an hour, immune to cancellation.
     */
    void check(const std::string &site, const std::string &key,
               unsigned attempt = 1) const;

    /** check() without the throw (used by tests and diagnostics). */
    bool wouldFail(const std::string &site, const std::string &key,
                   unsigned attempt, ErrorKind *kind = nullptr,
                   FaultAction *action = nullptr) const;

  private:
    std::vector<FaultSite> _sites;
    std::uint64_t _seed = 0;
    std::string _spec;
};

} // namespace ibp

#endif // IBP_ROBUST_FAULT_INJECTION_HH
