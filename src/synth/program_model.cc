#include "synth/program_model.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "util/logging.hh"

namespace ibp {

namespace {

/** Deterministic hash chain over 64-bit words, mapped to [0, 1). */
class HashChain
{
  public:
    explicit HashChain(std::uint64_t seed) : _state(seed) {}

    HashChain &
    feed(std::uint64_t word)
    {
        _state = mix64(_state ^ (word * 0x9e3779b97f4a7c15ULL));
        return *this;
    }

    std::uint64_t value() const { return _state; }

    double
    unit() const
    {
        return static_cast<double>(_state >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t _state;
};

/**
 * Dominant-target share of a Zipf(alpha) distribution over k targets.
 */
double
zipfDominance(double alpha, unsigned k)
{
    double total = 0;
    for (unsigned r = 1; r <= k; ++r)
        total += 1.0 / std::pow(static_cast<double>(r), alpha);
    return 1.0 / total;
}

/** Solve for the Zipf exponent giving dominant share @p d over k. */
double
solveSkewForDominance(unsigned k, double d)
{
    if (k <= 1)
        return 1.0;
    d = std::clamp(d, 1.0 / k + 0.01, 0.98);
    double lo = 0.0, hi = 16.0;
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = (lo + hi) / 2;
        if (zipfDominance(mid, k) < d)
            lo = mid;
        else
            hi = mid;
    }
    return (lo + hi) / 2;
}

/**
 * Solve for the site-activity Zipf exponent such that the expected
 * number of sites covering 90% of executions matches @p sites90.
 */
double
solveActivityAlpha(unsigned numSites, unsigned sites90)
{
    sites90 = std::clamp(sites90, 1u, numSites);
    const auto coverage90 = [&](double alpha) {
        double total = 0;
        std::vector<double> mass(numSites);
        for (unsigned r = 0; r < numSites; ++r) {
            mass[r] = 1.0 / std::pow(static_cast<double>(r + 1), alpha);
            total += mass[r];
        }
        double covered = 0;
        for (unsigned r = 0; r < numSites; ++r) {
            covered += mass[r];
            if (covered >= 0.90 * total)
                return r + 1;
        }
        return numSites;
    };
    // Higher alpha concentrates activity (fewer sites to reach 90%).
    double lo = 0.0, hi = 4.0;
    for (int iter = 0; iter < 50; ++iter) {
        const double mid = (lo + hi) / 2;
        if (coverage90(mid) > sites90)
            lo = mid;
        else
            hi = mid;
    }
    return (lo + hi) / 2;
}

enum class SiteBehavior
{
    Monomorphic,
    BiasedPoly,
    PathCorrelated,
    SelfCorrelated,
    SwitchLike,
};

} // namespace

ModelKnobs
deriveKnobs(const BenchmarkProfile &profile)
{
    ModelKnobs knobs;
    knobs.numSites = std::max(1u, profile.sites100);
    knobs.siteZipfAlpha =
        solveActivityAlpha(knobs.numSites, profile.sites90);

    const double btb_miss = profile.btbMissTarget / 100.0;
    const double floor_miss = profile.floorMissTarget / 100.0;

    // Lever 1: monomorphic sites absorb the easy part of the BTB
    // target (assigned rank-stratified in build(), so hot and cold
    // sites get the same mixture without per-seed luck).
    const double mono = std::clamp(1.0 - 2.5 * btb_miss, 0.05, 0.92);

    // Lever 2: dominant-target share d of the polymorphic sites.
    // BTB-2bc parks on the dominant target, but loop orbits make it
    // stickier than d alone suggests, hence the 1.15 boost.
    const double btb_corr = std::min(0.80, btb_miss / (1.0 - mono));
    const double dominance = std::clamp(1.0 - 1.15 * btb_corr,
                                        0.08, 0.95);

    // Lever 3: rule noise. Noise draws enter the global path and
    // cascade into fresh patterns for downstream branches, so only a
    // modest part of the two-level floor may come from noise; phases
    // (lever 4) supply the rest as relearnable transients.
    const double weight =
        std::max(0.02, (1.0 - mono) * (1.0 - dominance));
    const double noise =
        std::clamp(0.30 * floor_miss / weight, 0.002, 0.10);
    knobs.predictability = 1.0 - noise;

    knobs.monoFraction =
        profile.overrideMonoFraction >= 0.0 ? profile.overrideMonoFraction
                                            : mono;
    if (profile.overridePredictability > 0.0)
        knobs.predictability = profile.overridePredictability;

    // Polymorphism grows with BTB difficulty (compare Tables 1/2's
    // virtual-function columns against Figure 2).
    // Hard benchmarks need large target sets everywhere: a two-target
    // site cannot miss more than half the time under any schedule.
    knobs.minTargets =
        std::clamp(2u + static_cast<unsigned>(btb_miss * 8), 2u, 8u);
    knobs.maxTargets =
        std::clamp(3u + static_cast<unsigned>(btb_miss * 14), 4u, 16u);
    knobs.dominance = profile.overrideDominance > 0.0
                          ? profile.overrideDominance
                          : dominance;
    knobs.targetSkew = profile.overrideTargetSkew;

    // Loops are sticky for everyone: in the data-schedule model the
    // BTB's difficulty comes from the schedule period, not from
    // context churn, and a small recurrent context set keeps the
    // boundary-pattern space learnable.
    knobs.contextStickiness = profile.overrideStickiness > 0.0
                                  ? profile.overrideStickiness
                                  : 0.90;
    knobs.numContexts = std::clamp(knobs.numSites / 6, 12u, 96u);

    knobs.selfCorrelatedFraction = profile.selfCorrelatedFraction;
    // Switch-like sites are constant while their context holds and
    // period-1 contexts are constant outright - both are BTB-friendly
    // islands, so hard benchmarks get fewer of each.
    knobs.switchFraction =
        std::clamp((0.10 + 0.25 * (1.0 - profile.virtualCallFraction)) *
                       (1.0 - btb_miss),
                   0.02, 0.35);
    knobs.periodWeights[0] =
        0.16 * (1.0 - btb_miss) * (1.0 - btb_miss) + 0.01;
    knobs.transitionNoise =
        std::clamp(0.6 * floor_miss, 0.005, 0.08);
    // Data-driven iterations put an unpredictable first branch in
    // every pass, so their share scales with the benchmark's
    // two-level floor.
    knobs.dataDrivenFraction =
        std::clamp(2.5 * floor_miss, 0.08, 0.60);
    // Lever 4: phase changes re-salt part of the correlated sites,
    // creating relearnable transients that dominate the floor.
    knobs.phasePeriod = profile.overridePhasePeriod
                            ? profile.overridePhasePeriod
                            : 40000;
    knobs.phaseMutation = profile.overridePhaseMutation >= 0.0
                              ? profile.overridePhaseMutation
                              : std::clamp(2.0 * floor_miss, 0.02, 0.40);
    knobs.condPerIndirect = profile.condPerIndirect;
    knobs.virtualCallFraction = profile.virtualCallFraction;
    return knobs;
}

struct ProgramModel::Impl
{
    struct Site
    {
        Addr pc = 0;
        BranchKind kind = BranchKind::IndirectCall;
        SiteBehavior behavior = SiteBehavior::PathCorrelated;
        std::vector<Addr> targets;
        std::unique_ptr<CategoricalSampler> popularity;
        /** Own data-schedule period for SelfCorrelated sites. */
        unsigned period = 2;
        /** Own execution counter for SelfCorrelated sites. */
        std::uint64_t counter = 0;
        std::uint64_t baseSalt = 0;
        std::uint64_t salt = 0;
    };

    struct CondSite
    {
        Addr pc = 0;
        Addr takenTarget = 0;
        std::uint64_t salt = 0;
    };

    explicit Impl(const ModelKnobs &knobs, std::uint64_t seed)
        : knobs(knobs), buildRng(seed),
          runRng(seed ^ 0xABCDEF0123456789ULL),
          condRng(seed ^ 0x5DEECE66D1234567ULL)
    {
        build();
    }

    /** One dynamic indirect-branch occurrence chosen by nextSite(). */
    struct Step
    {
        unsigned site = 0;
        unsigned contextId = 0;
        unsigned slotPos = 0;
        std::uint64_t dataIndex = 0;
        /** Object type + 1 for data-driven iterations, else 0. */
        unsigned objectType = 0;
        /** This branch is the pass's type-revealing dispatch. */
        bool reveal = false;
    };

    void build();
    Addr randomCodeAddr(Rng &rng) const;
    Addr siteTarget(Site &site, const Step &step);
    Step nextSite();
    void applyPhase(std::uint64_t phaseIndex);
    Trace generate(const GeneratorOptions &options,
                   const std::string &name, std::uint64_t seed);

    ModelKnobs knobs;
    Rng buildRng;
    Rng runRng;
    /** Separate stream for the conditional/return side-channel, so
     *  emitting them never perturbs the indirect branch stream. */
    Rng condRng;

    std::vector<Site> sites;
    std::unique_ptr<ZipfSampler> siteSampler;
    std::unique_ptr<CategoricalSampler> objectPopularity;
    std::vector<CondSite> condSites;
    std::vector<Addr> returnSites;

    /**
     * Hidden context chain. A context is a loop body: an ordered
     * list of site slots executed in sequence while iterating over a
     * hidden *data schedule* of period P (think: walking a stable
     * list of polymorphic objects). Loop-structured control flow plus
     * the periodic schedule is what makes global path patterns
     * *recur*, the property two-level predictors rely on - and
     * because the schedule is independent of the emitted targets, a
     * noise draw perturbs at most the next few patterns instead of
     * cascading forever.
     *
     * A slot's probability models rarely-taken paths inside the
     * loop: tail sites live in low-probability slots so they appear
     * in the static site count without distorting the Zipf activity
     * profile.
     */
    struct Slot
    {
        unsigned site = 0;
        /**
         * 0 = executes every iteration. Otherwise the slot fires
         * only when iteration % every == offset - a rarely-taken but
         * *periodic* inner path, so tail sites stay predictable
         * instead of injecting random perturbations into the global
         * path.
         */
        std::uint16_t every = 0;
        std::uint16_t offset = 0;
    };

    struct Context
    {
        std::vector<Slot> slots;
        /** Data-schedule period (list length being iterated). */
        unsigned period = 1;
        /** Persistent iteration counter (resumes on re-entry). */
        std::uint64_t iteration = 0;
        /** Salt for the (mostly deterministic) successor choice. */
        std::uint64_t salt = 0;
        /** Loop-back probability (cold bodies exit quickly). */
        double stickiness = 0.9;
        /** Leading successor edges eligible for the deterministic
         *  pick (excludes the cold detour edge). */
        unsigned deterministicChoices = 1;
        /** Data-driven body: every iteration dispatches on a fresh
         *  polymorphic object (0 = periodic schedule instead). */
        bool dataDriven = false;
        /** Type of the object the current iteration dispatches on. */
        unsigned currentObject = 0;
        /** Slot whose target reveals the object type injectively
         *  (the "type check" of the pass). */
        unsigned revealerSlot = 0;
    };

    unsigned context = 0;
    unsigned slotIndex = 0;
    unsigned firstColdContext = 0;
    std::vector<Context> contexts;
    std::vector<std::unique_ptr<CategoricalSampler>> contextNext;
    std::vector<std::vector<unsigned>> contextSucc;
};

void
ProgramModel::Impl::build()
{
    const unsigned n = knobs.numSites;
    sites.resize(n);
    siteSampler =
        std::make_unique<ZipfSampler>(n, knobs.siteZipfAlpha);

    CategoricalSampler period_pick(knobs.periodWeights);

    // Monomorphic sites are chosen greedily down the activity ranks
    // so the *activity-weighted* fraction of every behaviour class
    // matches its knob even for benchmarks with a handful of sites
    // (no per-seed luck on which class the hot sites land in).
    double mass_seen = 0.0;
    double mono_mass = 0.0, switch_mass = 0.0, self_mass = 0.0,
           biased_mass = 0.0;
    const double f_mono = knobs.monoFraction;
    const double f_switch = (1.0 - f_mono) * knobs.switchFraction;
    const double f_self = (1.0 - f_mono - f_switch) *
                          knobs.selfCorrelatedFraction;
    const double f_biased = (1.0 - f_mono - f_switch) * 0.03;

    for (unsigned i = 0; i < n; ++i) {
        Site &site = sites[i];
        const double activity = siteSampler->probability(i);
        mass_seen += activity;
        const auto claim = [&](double target_frac, double &acc) {
            if ((acc + activity / 2) / mass_seen < target_frac) {
                acc += activity;
                return true;
            }
            return false;
        };

        if (claim(f_mono, mono_mass)) {
            site.behavior = SiteBehavior::Monomorphic;
        } else if (claim(f_switch, switch_mass)) {
            site.behavior = SiteBehavior::SwitchLike;
        } else if (claim(f_self, self_mass)) {
            site.behavior = SiteBehavior::SelfCorrelated;
        } else if (claim(f_biased, biased_mass)) {
            site.behavior = SiteBehavior::BiasedPoly;
        } else {
            site.behavior = SiteBehavior::PathCorrelated;
        }

        // Branch kind: switches are switch-jumps; the rest split into
        // virtual calls and other indirect jumps so that the dynamic
        // virtual-call fraction approximates the profile.
        if (site.behavior == SiteBehavior::SwitchLike) {
            site.kind = BranchKind::IndirectSwitch;
        } else {
            site.kind = buildRng.nextBool(knobs.virtualCallFraction)
                            ? BranchKind::IndirectCall
                            : BranchKind::IndirectJump;
        }

        // Target set with skewed popularity.
        const unsigned k =
            site.behavior == SiteBehavior::Monomorphic
                ? 1
                : static_cast<unsigned>(buildRng.nextInRange(
                      knobs.minTargets, knobs.maxTargets));
        site.targets.resize(k);
        for (auto &target : site.targets)
            target = randomCodeAddr(buildRng);
        // Solve the per-site popularity skew so the dominant target
        // carries the calibrated share (with mild per-site jitter).
        double skew = knobs.targetSkew;
        if (skew <= 0.0) {
            const double jitter =
                0.92 + 0.16 * buildRng.nextDouble();
            skew = solveSkewForDominance(
                k, std::clamp(knobs.dominance * jitter, 0.05, 0.97));
        }
        std::vector<double> weights(k);
        for (unsigned r = 0; r < k; ++r) {
            weights[r] =
                1.0 / std::pow(static_cast<double>(r + 1), skew);
        }
        site.popularity = std::make_unique<CategoricalSampler>(weights);

        site.period = 1 + period_pick.sample(buildRng);
        site.baseSalt = buildRng.next();
        site.salt = site.baseSalt;
    }

    // Hidden context chain: each context is a loop body whose slots
    // are drawn from the Zipf site-activity distribution (hot sites
    // land in many loop bodies), with sparse random successors.
    const unsigned context_count = std::max(2u, knobs.numContexts);
    contexts.resize(context_count);
    // Hot contexts first. Tail sites that Zipf sampling missed go
    // into *cold* contexts afterwards - rarely-visited loop bodies
    // that exercise the static site count (the tables' "100%"
    // column) while confining their path perturbations to their own
    // short visits instead of scattering them through hot loops.
    for (unsigned c = 0; c < context_count; ++c) {
        const unsigned body =
            static_cast<unsigned>(buildRng.nextInRange(3, 8));
        contexts[c].slots.resize(body);
        for (auto &slot : contexts[c].slots)
            slot.site = siteSampler->sample(buildRng);
        contexts[c].period = 1 + period_pick.sample(buildRng);
        contexts[c].salt = buildRng.next();
        contexts[c].stickiness = knobs.contextStickiness;
        contexts[c].dataDriven =
            buildRng.nextBool(knobs.dataDrivenFraction);
        if (contexts[c].dataDriven) {
            // The revealer is the first path-correlated slot; without
            // one, downstream branches could never observe the object
            // type, so the body falls back to a periodic schedule.
            contexts[c].dataDriven = false;
            for (unsigned pos = 0; pos < contexts[c].slots.size();
                 ++pos) {
                const Site &site =
                    sites[contexts[c].slots[pos].site];
                if (site.behavior == SiteBehavior::PathCorrelated) {
                    contexts[c].dataDriven = true;
                    contexts[c].revealerSlot = pos;
                    break;
                }
            }
        }
    }

    // Popularity of the object types data-driven iterations draw.
    // Type streams are dominant-heavy regardless of how polymorphic
    // the targets are, or the revealer branch alone would sink the
    // two-level floor.
    {
        const unsigned types = std::max(2u, knobs.numObjectTypes);
        const double skew = solveSkewForDominance(
            types, std::clamp(knobs.dominance + 0.35, 0.55, 0.92));
        std::vector<double> weights(types);
        for (unsigned t = 0; t < types; ++t) {
            weights[t] =
                1.0 / std::pow(static_cast<double>(t + 1), skew);
        }
        objectPopularity =
            std::make_unique<CategoricalSampler>(weights);
    }

    std::vector<bool> used(n, false);
    for (const auto &ctx : contexts) {
        for (const Slot &slot : ctx.slots)
            used[slot.site] = true;
    }
    std::vector<unsigned> tail;
    for (unsigned i = 0; i < n; ++i) {
        if (!used[i])
            tail.push_back(i);
    }
    const unsigned first_cold = context_count;
    firstColdContext = first_cold;
    for (std::size_t base = 0; base < tail.size(); base += 6) {
        Context cold;
        const std::size_t body = std::min<std::size_t>(
            6, tail.size() - base);
        cold.slots.resize(body);
        for (std::size_t s = 0; s < body; ++s)
            cold.slots[s].site = tail[base + s];
        cold.period = 1 + period_pick.sample(buildRng);
        cold.salt = buildRng.next();
        cold.stickiness = 0.4; // cold bodies exit quickly
        contexts.push_back(std::move(cold));
    }
    const unsigned total_contexts =
        static_cast<unsigned>(contexts.size());

    // Successor graph: hot contexts mostly chain to other hot ones,
    // occasionally detouring through a cold body; cold contexts
    // always return to a hot one.
    contextNext.resize(total_contexts);
    contextSucc.resize(total_contexts);
    for (unsigned c = 0; c < total_contexts; ++c) {
        const bool cold = c >= first_cold;
        const unsigned fanout =
            cold ? 1
                 : static_cast<unsigned>(buildRng.nextInRange(2, 3));
        std::vector<double> weights(fanout);
        contextSucc[c].resize(fanout);
        for (unsigned f = 0; f < fanout; ++f) {
            contextSucc[c][f] = static_cast<unsigned>(
                buildRng.nextBelow(context_count)); // a hot context
            weights[f] = 0.2 + buildRng.nextDouble();
        }
        // The deterministic successor rule only ever picks among
        // these hot edges; cold detours are reached via the random
        // 8% sampling path below.
        contexts[c].deterministicChoices = fanout;
        if (!cold && first_cold < total_contexts &&
            buildRng.nextBool(0.35)) {
            // A low-weight detour edge into one cold body.
            contextSucc[c].push_back(
                first_cold +
                static_cast<unsigned>(buildRng.nextBelow(
                    total_contexts - first_cold)));
            weights.push_back(0.12);
        }
        contextNext[c] =
            std::make_unique<CategoricalSampler>(weights);
    }

    // Lay out site addresses *by loop body*: branches that execute
    // together live near each other (they belong to the same
    // compilation unit in a real program), so the history-sharing
    // parameter s of Figure 4 groups branches that actually share
    // useful path context.
    {
        std::vector<bool> placed(n, false);
        std::unordered_map<Addr, bool> used_bases;
        for (const auto &ctx : contexts) {
            Addr base = randomCodeAddr(buildRng) & ~Addr{0x1ff};
            while (used_bases.count(base))
                base = randomCodeAddr(buildRng) & ~Addr{0x1ff};
            used_bases[base] = true;
            unsigned offset = 0;
            for (const Slot &slot : ctx.slots) {
                if (placed[slot.site])
                    continue;
                placed[slot.site] = true;
                sites[slot.site].pc = base + offset * 16;
                ++offset;
            }
        }
        for (unsigned i = 0; i < n; ++i) {
            if (!placed[i])
                sites[i].pc = randomCodeAddr(buildRng);
        }
    }

    // Conditional-branch and return populations.
    condSites.resize(knobs.numCondSites);
    for (auto &cond : condSites) {
        cond.pc = randomCodeAddr(buildRng);
        cond.takenTarget = randomCodeAddr(buildRng);
        cond.salt = buildRng.next();
    }
    returnSites.resize(16);
    for (auto &pc : returnSites)
        pc = randomCodeAddr(buildRng);
}

Addr
ProgramModel::Impl::randomCodeAddr(Rng &rng) const
{
    const Addr offset = static_cast<Addr>(
        rng.nextBelow(knobs.codeSpan));
    return (knobs.codeBase + offset) & ~Addr{3};
}

ProgramModel::Impl::Step
ProgramModel::Impl::nextSite()
{
    while (true) {
        if (slotIndex >= contexts[context].slots.size()) {
            // End of the loop body: the pass over the hidden data
            // schedule completes; iterate again with probability
            // contextStickiness, otherwise transfer to a successor
            // (whose own schedule resumes where it left off). The
            // successor is usually a deterministic function of the
            // iteration count - which loop follows which is
            // data-driven but repetitive in real programs, so the
            // transition patterns themselves are learnable.
            Context &ctx = contexts[context];
            ++ctx.iteration;
            if (!runRng.nextBool(ctx.stickiness)) {
                unsigned pick;
                if (!runRng.nextBool(knobs.transitionNoise)) {
                    pick = static_cast<unsigned>(
                        HashChain(ctx.salt)
                            .feed(ctx.iteration % 6)
                            .value() %
                        ctx.deterministicChoices);
                } else {
                    pick = contextNext[context]->sample(runRng);
                }
                context = contextSucc[context][pick];
            }
            slotIndex = 0;
            // A new iteration starts: data-driven bodies pick up the
            // next polymorphic object to dispatch on.
            Context &entered = contexts[context];
            if (entered.dataDriven) {
                entered.currentObject =
                    objectPopularity->sample(runRng);
            }
        }
        const unsigned pos = slotIndex++;
        const Context &ctx = contexts[context];
        const Slot &slot = ctx.slots[pos];
        if (slot.every == 0 ||
            ctx.iteration % slot.every == slot.offset) {
            return Step{slot.site, context, pos,
                        ctx.iteration % ctx.period,
                        ctx.dataDriven ? ctx.currentObject + 1 : 0,
                        ctx.dataDriven && pos == ctx.revealerSlot};
        }
    }
}

Addr
ProgramModel::Impl::siteTarget(Site &site, const Step &step)
{
    switch (site.behavior) {
      case SiteBehavior::Monomorphic:
        return site.targets[0];
      case SiteBehavior::BiasedPoly:
        return site.targets[site.popularity->sample(runRng)];
      case SiteBehavior::SwitchLike: {
        // Constant while the hidden context holds, like a switch on
        // a slowly-changing mode variable.
        const double u =
            HashChain(site.salt).feed(step.contextId + 1).unit();
        return site.targets[site.popularity->pickByUnit(u)];
      }
      case SiteBehavior::PathCorrelated: {
        // Deterministic function of (context, slot, position in the
        // hidden data schedule): the global target path encodes all
        // three, so a long-enough history makes this predictable.
        //
        // The schedule positions map onto a *small* set of target
        // variants (m = 2..3), so the schedule repeats targets, like
        // receiver types recurring in real object lists. A site's own
        // history is then ambiguous about the schedule position and
        // the targets of *other* branches are needed to disambiguate
        // it - the inter-branch correlation that makes a global
        // history outperform per-address histories (section 3.2.1).
        if (!runRng.nextBool(knobs.predictability))
            return site.targets[site.popularity->sample(runRng)];
        if (step.objectType != 0) {
            // Data-driven iteration: every slot dispatches on the
            // iteration's object, so this target is determined by
            // (and correlated with) the other branches of the pass.
            // The revealer maps the type to a target injectively (a
            // vtable dispatch distinguishing every receiver type);
            // once its target is in the global path, the pass's
            // other branches become predictable.
            if (step.reveal) {
                return site.targets[(step.objectType - 1) %
                                    site.targets.size()];
            }
            const double u_obj = HashChain(site.salt ^ 0x6f626a74)
                                     .feed(step.contextId + 1)
                                     .feed(step.slotPos + 1)
                                     .feed(step.objectType)
                                     .unit();
            return site.targets[site.popularity->pickByUnit(u_obj)];
        }
        const std::uint64_t variants =
            2 + (HashChain(site.salt ^ 0x76617269)
                     .feed(step.contextId + 1)
                     .feed(step.slotPos + 1)
                     .value() &
                 1);
        const std::uint64_t variant =
            HashChain(site.salt ^ 0x7363686c)
                .feed(step.contextId + 1)
                .feed(step.slotPos + 1)
                .feed(step.dataIndex + 1)
                .value() %
            variants;
        const double u = HashChain(site.salt)
                             .feed(step.contextId + 1)
                             .feed(step.slotPos + 1)
                             .feed(variant + 1)
                             .unit();
        return site.targets[site.popularity->pickByUnit(u)];
      }
      case SiteBehavior::SelfCorrelated: {
        // Periodic in the site's *own* execution count: the branch
        // correlates with itself but not with other branches (the
        // infrequent group's behaviour, section 3.2.1).
        const std::uint64_t position = site.counter++ % site.period;
        if (!runRng.nextBool(knobs.predictability))
            return site.targets[site.popularity->sample(runRng)];
        const double u =
            HashChain(site.salt).feed(position + 1).unit();
        return site.targets[site.popularity->pickByUnit(u)];
      }
    }
    panic("unreachable site behavior");
}

void
ProgramModel::Impl::applyPhase(std::uint64_t phase_index)
{
    // Deterministic per-site mutation decision: independent of how
    // many events were generated before the phase boundary.
    for (auto &site : sites) {
        if (site.behavior != SiteBehavior::PathCorrelated &&
            site.behavior != SiteBehavior::SelfCorrelated &&
            site.behavior != SiteBehavior::SwitchLike) {
            continue;
        }
        const double u =
            HashChain(site.baseSalt).feed(phase_index).unit();
        if (u < knobs.phaseMutation) {
            site.salt = HashChain(site.baseSalt)
                            .feed(phase_index ^ 0xf00dULL)
                            .value();
        }
    }
}

Trace
ProgramModel::Impl::generate(const GeneratorOptions &options,
                             const std::string &name,
                             std::uint64_t seed)
{
    const std::uint64_t events = options.events;
    Trace trace(name);
    trace.setSeed(seed);
    trace.reserve(events +
                  (options.emitConditionals
                       ? events * (std::min<double>(
                                       knobs.condPerIndirect,
                                       options.conditionalCap) +
                                   0.4)
                       : 0));

    double cond_accum = 0;
    std::uint64_t phase = 0;
    unsigned return_countdown = 3;

    // Startup sweep: execute every cold loop body once, modelling
    // the initialisation code that gives real programs their long
    // tail of once-executed indirect branch sites.
    std::vector<Step> startup;
    for (unsigned c = firstColdContext; c < contexts.size(); ++c) {
        for (unsigned pos = 0; pos < contexts[c].slots.size(); ++pos)
            startup.push_back(Step{contexts[c].slots[pos].site, c,
                                   pos, 0});
    }

    for (std::uint64_t i = 0; i < events; ++i) {
        if (knobs.phasePeriod != 0 && i != 0 &&
            i % knobs.phasePeriod == 0) {
            applyPhase(++phase);
        }

        const Step step = i < startup.size()
                              ? startup[i]
                              : nextSite();
        Site &site = sites[step.site];
        const Addr target = siteTarget(site, step);

        trace.append(BranchRecord{site.pc, target, site.kind, true});

        if (!options.emitConditionals)
            continue;

        // Interleave conditional branches at the profile's ratio,
        // capped per indirect branch (DESIGN.md section 1).
        cond_accum += knobs.condPerIndirect;
        unsigned emit = static_cast<unsigned>(cond_accum);
        emit = std::min(emit, options.conditionalCap);
        cond_accum = std::min(cond_accum - emit,
                              static_cast<double>(
                                  options.conditionalCap));
        for (unsigned c = 0; c < emit; ++c) {
            const std::size_t pick = static_cast<std::size_t>(
                HashChain(0xc0ffee).feed(context).feed(c).value() %
                condSites.size());
            CondSite &cond = condSites[pick];
            bool taken =
                HashChain(cond.salt).feed(context).unit() <
                knobs.condTakenBias + 0.4;
            if (condRng.nextBool(0.08))
                taken = !taken;
            trace.append(BranchRecord{cond.pc,
                                      taken ? cond.takenTarget
                                            : cond.pc + 8,
                                      BranchKind::Conditional, taken});
        }

        if (--return_countdown == 0) {
            return_countdown = 3;
            const Addr pc =
                returnSites[condRng.nextBelow(returnSites.size())];
            trace.append(BranchRecord{pc, randomCodeAddr(condRng),
                                      BranchKind::Return, true});
        }
    }
    // Lets per-site accounting pre-size its maps instead of growing
    // them during a measured loop.
    trace.setSiteCountHint(static_cast<std::uint32_t>(sites.size()));
    return trace;
}

ProgramModel::ProgramModel(const ModelKnobs &knobs, std::uint64_t seed)
    : _knobs(knobs), _impl(std::make_unique<Impl>(knobs, seed))
{
}

ProgramModel::~ProgramModel() = default;

Trace
ProgramModel::generate(const GeneratorOptions &options,
                       const std::string &name)
{
    GeneratorOptions resolved = options;
    if (resolved.events == 0)
        fatal("generator needs a nonzero event count");
    return _impl->generate(resolved, name, 0);
}

Trace
generateTrace(const BenchmarkProfile &profile,
              const GeneratorOptions &options)
{
    GeneratorOptions resolved = options;
    if (resolved.events == 0)
        resolved.events = profile.defaultEvents;
    IBP_ASSERT(resolved.events != 0, "profile '%s' has no event count",
               profile.name.c_str());
    ProgramModel model(deriveKnobs(profile), profile.seed);
    Trace trace = model.generate(resolved, profile.name);
    trace.setSeed(profile.seed);
    return trace;
}

} // namespace ibp
