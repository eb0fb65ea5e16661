#include "synth/benchmark_suite.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"

namespace ibp {

namespace {

/** Knob overrides produced by tools/autotune (closed-loop fit of the
 * generator against the paper's calibration targets). */
struct Tuning
{
    double dominance;
    double predictability;
    double stickiness;
    double phaseMutation;
    /** <0 keeps the derived monomorphic fraction. */
    double monoFraction = -1.0;
};

// Auto-tuned by tools/autotune; regenerate after structural changes
// to the program model.
const std::pair<const char *, Tuning> kTunings[] = {
    {"idl", {0.4450, 0.99900, 0.970, 0.0050}},
    {"jhm", {0.1250, 0.78581, 0.900, 0.3749}},
    {"self", {0.3900, 0.99601, 0.900, 0.0081}},
    {"troff", {0.3900, 0.99277, 0.900, 0.0103}},
    {"lcom", {0.1250, 0.99900, 0.900, 0.0050}},
    {"porky", {0.4650, 0.99900, 0.900, 0.0050}},
    {"ixx", {0.3400, 0.99900, 0.970, 0.0050}},
    {"eqn", {0.2050, 0.99300, 0.900, 0.0350}},
    {"beta", {0.3400, 0.99900, 0.970, 0.0050}},
    {"xlisp", {0.90, 0.99900, 0.970, 0.0050, 0.40}},
    {"perl", {0.2650, 0.99900, 0.970, 0.0050}},
    {"edg", {0.1250, 0.99900, 0.920, 0.0050}},
    {"gcc", {0.1300, 0.99900, 0.920, 0.0050}},
    {"m88ksim", {0.1750, 0.99597, 0.940, 0.0201}},
    {"vortex", {0.6550, 0.90620, 0.900, 0.1855}},
    {"ijpeg", {0.7900, 0.98689, 0.900, 0.0233}},
    {"go", {0.7300, 0.73524, 0.900, 0.6938}},
};

/**
 * Build one profile. Calibration targets (btb / floor) are the
 * paper's unconstrained BTB-2bc misprediction rate (Figure 2 /
 * Table A-1) and large-table two-level floor (Table A-1, fullassoc
 * column at 32K entries).
 */
BenchmarkProfile
profile(const std::string &name, const std::string &description,
        BenchmarkSuiteKind suite, std::uint64_t seed,
        std::uint64_t paper_branches, double instr_per_indirect,
        double cond_per_indirect, double vcall_fraction,
        unsigned sites90, unsigned sites100, double btb_target,
        double floor_target)
{
    BenchmarkProfile p;
    p.name = name;
    p.description = description;
    p.suite = suite;
    p.seed = seed;
    p.paperBranches = paper_branches;
    p.defaultEvents = std::min<std::uint64_t>(paper_branches, 300000);
    p.instrPerIndirect = instr_per_indirect;
    p.condPerIndirect = cond_per_indirect;
    p.virtualCallFraction = vcall_fraction;
    p.sites90 = sites90;
    p.sites100 = sites100;
    p.btbMissTarget = btb_target;
    p.floorMissTarget = floor_target;
    p.selfCorrelatedFraction =
        suite == BenchmarkSuiteKind::Infrequent ? 0.80 : 0.10;
    for (const auto &[tuned_name, tuning] : kTunings) {
        if (name == tuned_name) {
            p.overrideDominance = tuning.dominance;
            p.overridePredictability = tuning.predictability;
            p.overrideStickiness = tuning.stickiness;
            p.overridePhaseMutation = tuning.phaseMutation;
            p.overrideMonoFraction = tuning.monoFraction;
            break;
        }
    }
    return p;
}

std::vector<BenchmarkProfile>
buildSuite()
{
    using K = BenchmarkSuiteKind;
    std::vector<BenchmarkProfile> suite;

    // Table 1: large object-oriented applications.
    suite.push_back(profile("idl", "SunSoft's IDL compiler",
                            K::ObjectOriented, 0x1D7001, 1883641, 47, 6,
                            0.93, 6, 543, 2.40, 0.42));
    suite.push_back(profile("jhm", "Java High-level Class Modifier",
                            K::ObjectOriented, 0x1D7002, 6000000, 47, 5,
                            0.94, 11, 155, 11.13, 8.75));
    suite.push_back(profile("self", "Self-93 virtual machine",
                            K::ObjectOriented, 0x1D7003, 1000000, 56, 7,
                            0.76, 309, 1855, 15.68, 10.16));
    suite.push_back(profile("troff", "GNU groff 1.09",
                            K::ObjectOriented, 0x1D7004, 1110592, 90, 13,
                            0.74, 19, 161, 13.70, 7.15));
    suite.push_back(profile("lcom", "HDL compiler",
                            K::ObjectOriented, 0x1D7005, 1737751, 97, 10,
                            0.60, 8, 328, 4.25, 1.39));
    suite.push_back(profile("porky", "SUIF 1.0 scalar optimizer",
                            K::ObjectOriented, 0x1D7006, 5392890, 138,
                            19, 0.71, 35, 285, 20.80, 4.61));
    suite.push_back(profile("ixx", "Fresco IDL parser",
                            K::ObjectOriented, 0x1D7007, 212035, 139, 18,
                            0.47, 31, 203, 45.70, 5.58));
    suite.push_back(profile("eqn", "equation typesetter",
                            K::ObjectOriented, 0x1D7008, 296425, 159, 25,
                            0.34, 17, 114, 34.78, 12.56));
    suite.push_back(profile("beta", "BETA compiler",
                            K::ObjectOriented, 0x1D7009, 1005995, 188,
                            23, 0.50, 37, 376, 28.57, 2.20));

    // Table 2: C programs with frequent indirect branches.
    suite.push_back(profile("xlisp", "SPEC95 lisp interpreter", K::C,
                            0x1D700A, 6000000, 69, 11, 0.0, 3, 13,
                            13.51, 1.37));
    suite.push_back(profile("perl", "SPEC95 perl", K::C, 0x1D700B,
                            300000, 113, 17, 0.0, 6, 24, 31.80, 0.45));
    suite.push_back(profile("edg", "EDG C++ front end", K::C, 0x1D700C,
                            548893, 149, 23, 0.0, 91, 350, 35.91,
                            11.86));
    suite.push_back(profile("gcc", "SPEC95 gcc", K::C, 0x1D700D, 864838,
                            176, 31, 0.0, 38, 166, 65.70, 11.71));

    // Table 2: programs with infrequent indirect branches.
    suite.push_back(profile("m88ksim", "SPEC95 88K simulator",
                            K::Infrequent, 0x1D700E, 300000, 1827, 233,
                            0.0, 3, 17, 76.41, 3.07));
    suite.push_back(profile("vortex", "SPEC95 OO database",
                            K::Infrequent, 0x1D700F, 3000000, 3480, 525,
                            0.0, 5, 37, 20.19, 9.89));
    suite.push_back(profile("ijpeg", "SPEC95 JPEG codec",
                            K::Infrequent, 0x1D7010, 32975, 5770, 441,
                            0.0, 3, 60, 1.26, 0.62));
    suite.push_back(profile("go", "SPEC95 go player", K::Infrequent,
                            0x1D7011, 549656, 56355, 7123, 0.0, 2, 14,
                            29.25, 22.82));

    return suite;
}

BenchmarkGroups
buildGroups()
{
    BenchmarkGroups groups;
    groups.oo = {"idl", "jhm", "self", "troff", "lcom",
                 "porky", "ixx", "eqn", "beta"};
    groups.c = {"xlisp", "perl", "edg", "gcc"};
    groups.avg = groups.oo;
    groups.avg.insert(groups.avg.end(), groups.c.begin(),
                      groups.c.end());
    groups.avg100 = {"idl", "jhm", "self", "troff", "lcom", "xlisp"};
    groups.avg200 = {"porky", "ixx", "eqn", "beta",
                     "perl", "edg", "gcc"};
    groups.infrequent = {"m88ksim", "vortex", "ijpeg", "go"};
    return groups;
}

} // namespace

const std::vector<BenchmarkProfile> &
benchmarkSuite()
{
    static const std::vector<BenchmarkProfile> suite = buildSuite();
    return suite;
}

const BenchmarkProfile &
benchmarkProfile(const std::string &name)
{
    for (const auto &profile : benchmarkSuite()) {
        if (profile.name == name)
            return profile;
    }
    fatal("unknown benchmark '%s'", name.c_str());
}

const BenchmarkGroups &
benchmarkGroups()
{
    static const BenchmarkGroups groups = buildGroups();
    return groups;
}

namespace {

/** Scaled event count a default-length generation run emits. */
std::uint64_t
scaledEvents(const BenchmarkProfile &profile, double event_scale)
{
    return std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(
                  static_cast<double>(profile.defaultEvents) *
                  event_scale));
}

} // namespace

Trace
generateBenchmarkTrace(const std::string &name, bool emitConditionals,
                       double event_scale)
{
    const BenchmarkProfile &profile = benchmarkProfile(name);
    GeneratorOptions options;
    options.events = scaledEvents(profile, event_scale);
    options.emitConditionals = emitConditionals;
    return generateTrace(profile, options);
}

std::string
benchmarkTraceCacheKey(const std::string &name, bool emitConditionals,
                       double event_scale)
{
    const BenchmarkProfile &profile = benchmarkProfile(name);
    const GeneratorOptions defaults;

    // Canonical description of everything the generated bytes depend
    // on. Doubles are printed with %.17g so any representable change
    // to a knob changes the key.
    std::ostringstream desc;
    const auto num = [&desc](const char *field, double value) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        desc << field << '=' << buf << '|';
    };
    desc << "gen=" << kTraceGeneratorVersion << '|'
         << "name=" << profile.name << '|'
         << "seed=" << profile.seed << '|'
         << "events=" << scaledEvents(profile, event_scale) << '|'
         << "cond=" << (emitConditionals ? 1 : 0) << '|'
         << "condcap=" << defaults.conditionalCap << '|'
         << "suite=" << static_cast<int>(profile.suite) << '|'
         << "sites90=" << profile.sites90 << '|'
         << "sites100=" << profile.sites100 << '|';
    num("instr", profile.instrPerIndirect);
    num("condpi", profile.condPerIndirect);
    num("vcall", profile.virtualCallFraction);
    num("btb", profile.btbMissTarget);
    num("floor", profile.floorMissTarget);
    num("selfcorr", profile.selfCorrelatedFraction);
    num("opred", profile.overridePredictability);
    num("odom", profile.overrideDominance);
    num("oskew", profile.overrideTargetSkew);
    num("omono", profile.overrideMonoFraction);
    num("ostick", profile.overrideStickiness);
    num("ophase", profile.overridePhaseMutation);
    desc << "operiod=" << profile.overridePhasePeriod;

    // FNV-1a 64: stable across platforms, and collisions between
    // *different* configurations of the same benchmark would need
    // ~2^32 entries - far beyond the handful a suite ever has.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : desc.str()) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return name + "-" + hex;
}

} // namespace ibp
