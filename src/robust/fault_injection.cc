#include "robust/fault_injection.hh"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "util/logging.hh"

namespace ibp {

namespace {

/** FNV-1a over a string; mixes site/key names into the decision. */
std::uint64_t
hashString(const std::string &text, std::uint64_t hash)
{
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** splitmix64 finaliser: decorrelates the combined hash. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

Result<FaultInjector>
FaultInjector::parse(const std::string &spec)
{
    FaultInjector injector;
    injector._spec = spec;
    std::stringstream stream(spec);
    std::string clause;
    while (std::getline(stream, clause, ',')) {
        if (clause.empty())
            continue;
        if (clause.rfind("seed=", 0) == 0) {
            char *end = nullptr;
            injector._seed =
                std::strtoull(clause.c_str() + 5, &end, 10);
            if (end == clause.c_str() + 5 || *end != '\0') {
                return RunError::permanent(
                    "fault spec: bad seed in '" + clause + "'");
            }
            continue;
        }
        const auto first = clause.find(':');
        if (first == std::string::npos) {
            return RunError::permanent(
                "fault spec: expected SITE:PROB[:KIND] in '" +
                clause + "'");
        }
        FaultSite site;
        site.site = clause.substr(0, first);
        const auto second = clause.find(':', first + 1);
        const std::string prob_text = clause.substr(
            first + 1, second == std::string::npos
                           ? std::string::npos
                           : second - first - 1);
        char *end = nullptr;
        site.probability = std::strtod(prob_text.c_str(), &end);
        if (end == prob_text.c_str() || *end != '\0' ||
            site.probability < 0.0 || site.probability > 1.0) {
            return RunError::permanent(
                "fault spec: bad probability '" + prob_text +
                "' in '" + clause + "'");
        }
        if (second != std::string::npos) {
            const std::string kind = clause.substr(second + 1);
            if (kind == "transient") {
                site.kind = ErrorKind::Transient;
            } else if (kind == "permanent") {
                site.kind = ErrorKind::Permanent;
            } else if (kind == "crash") {
                // Process-fatal kinds roll like transient faults so
                // the retried incarnation of a cell can clear.
                site.kind = ErrorKind::Transient;
                site.action = FaultAction::Crash;
            } else if (kind == "hang") {
                site.kind = ErrorKind::Timeout;
                site.action = FaultAction::Hang;
            } else {
                return RunError::permanent(
                    "fault spec: unknown kind '" + kind + "' in '" +
                    clause + "'");
            }
        }
        injector._sites.push_back(std::move(site));
    }
    return injector;
}

bool
FaultInjector::wouldFail(const std::string &site,
                         const std::string &key, unsigned attempt,
                         ErrorKind *kind, FaultAction *action) const
{
    for (std::size_t index = 0; index < _sites.size(); ++index) {
        const FaultSite &armed = _sites[index];
        if (armed.site != site || armed.probability <= 0.0)
            continue;
        // The clause index decorrelates clauses that share a site
        // name (e.g. crash and hang both armed at "sim"): without
        // it they would roll the same number, and the lower
        // probability would be a pure subset of - shadowed by - the
        // higher one. Index 0 keeps the historical decisions.
        std::uint64_t hash = hashString(
            site, 0xcbf29ce484222325ULL +
                      0x632be59bd9b4e019ULL * index);
        hash = hashString(key, hash ^ _seed);
        // Permanent faults ignore the attempt number so they never
        // clear on retry; transient faults re-roll every attempt.
        // Process-fatal actions re-roll too: the supervisor feeds the
        // journalled start count into the attempt, so the retried
        // incarnation of a crashed/hung cell can come up clean.
        if (armed.kind == ErrorKind::Transient ||
            armed.action != FaultAction::Throw)
            hash ^= 0x9e3779b97f4a7c15ULL * attempt;
        const double roll =
            static_cast<double>(mix(hash) >> 11) * 0x1.0p-53;
        if (roll < armed.probability) {
            if (kind)
                *kind = armed.kind;
            if (action)
                *action = armed.action;
            return true;
        }
    }
    return false;
}

void
FaultInjector::check(const std::string &site, const std::string &key,
                     unsigned attempt) const
{
    ErrorKind kind = ErrorKind::Transient;
    FaultAction action = FaultAction::Throw;
    if (!wouldFail(site, key, attempt, &kind, &action))
        return;
    if (action == FaultAction::Crash) {
        warn("fault injection: crashing at %s/%s (attempt %u)",
             site.c_str(), key.c_str(), attempt);
        std::abort();
    }
    if (action == FaultAction::Hang) {
        // Sleep far past any sane deadline in short slices,
        // deliberately ignoring the cooperative cancel token: only
        // an external hard kill (the supervisor's SIGKILL ceiling)
        // clears an injected hang.
        warn("fault injection: hanging at %s/%s (attempt %u)",
             site.c_str(), key.c_str(), attempt);
        for (int slice = 0; slice < 3600 * 20; ++slice) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }
    const std::string message = "injected " +
                                std::string(errorKindName(kind)) +
                                " fault at " + site + "/" + key;
    throw RunException(RunError{kind, message, 1});
}

} // namespace ibp
