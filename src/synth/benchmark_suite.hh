/**
 * @file
 * The synthetic counterpart of the paper's benchmark suite.
 *
 * Provides calibrated profiles for all 17 programs of Tables 1 and 2
 * and the benchmark groups of Table 3 (AVG, AVG-OO, AVG-C, AVG-100,
 * AVG-200, AVG-infreq). Default event counts are scaled-down versions
 * of the paper's trace lengths; a run's RunConfig::eventScale
 * multiplies them (e.g. 2.0 doubles every trace).
 */

#ifndef IBP_SYNTH_BENCHMARK_SUITE_HH
#define IBP_SYNTH_BENCHMARK_SUITE_HH

#include <string>
#include <vector>

// Only for the default scale argument below, which callers outside
// a run (tools, tests) evaluate; the generator itself never reads
// the environment.
#include "robust/run_config.hh"
#include "synth/benchmark_profile.hh"
#include "synth/program_model.hh"
#include "trace/trace.hh"

namespace ibp {

/** All 17 benchmark profiles, OO suite first (Tables 1 and 2). */
const std::vector<BenchmarkProfile> &benchmarkSuite();

/** Look up one profile by name; calls fatal() if unknown. */
const BenchmarkProfile &benchmarkProfile(const std::string &name);

/** The paper's averaging groups (Table 3). */
struct BenchmarkGroups
{
    std::vector<std::string> oo;        ///< AVG-OO (9 programs)
    std::vector<std::string> c;         ///< AVG-C (4 programs)
    std::vector<std::string> avg;       ///< AVG = OO + C (13)
    std::vector<std::string> avg100;    ///< < 100 instr / indirect
    std::vector<std::string> avg200;    ///< 100..200 instr / indirect
    std::vector<std::string> infrequent;///< > 1000 instr / indirect
};

const BenchmarkGroups &benchmarkGroups();

/**
 * Generate a benchmark's trace at its default length times
 * @p eventScale (default: the environment's, see
 * RunConfig::fromEnvironment).
 */
Trace generateBenchmarkTrace(
    const std::string &name, bool emitConditionals = false,
    double eventScale = RunConfig::fromEnvironment(false).eventScale);

/**
 * Version stamp of the synthetic trace generator. Part of every
 * trace-cache key: bump it whenever program_model.cc, deriveKnobs(),
 * or the baked-in tunings change the bytes generateBenchmarkTrace()
 * produces, so stale cache entries miss instead of silently serving
 * output of the previous generator.
 */
constexpr unsigned kTraceGeneratorVersion = 1;

/**
 * Content address of the trace generateBenchmarkTrace(@p name,
 * @p emitConditionals, @p eventScale) produces:
 * `<name>-<16 hex digits>`, an FNV-1a hash of the generator version,
 * every profile field, the scaled event count, the seed and the
 * conditionals flag. Identical configurations collide on purpose -
 * that is the cache hit.
 */
std::string benchmarkTraceCacheKey(
    const std::string &name, bool emitConditionals = false,
    double eventScale = RunConfig::fromEnvironment(false).eventScale);

} // namespace ibp

#endif // IBP_SYNTH_BENCHMARK_SUITE_HH
