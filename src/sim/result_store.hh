/**
 * @file
 * Content-addressed on-disk store of simulation results.
 *
 * The trace cache (src/trace/trace_cache.hh) made trace acquisition
 * incremental; this store does the same for the simulation itself.
 * Each (configuration x benchmark) cell is keyed by everything that
 * determines its counters:
 *
 *   cell key = FNV-1a( store format version | simulator version |
 *                      trace cache key | canonical spec hash )
 *
 * The trace cache key already folds in the generator version, the
 * full benchmark profile, the scaled event count (and therefore
 * IBP_EVENTS / --quick) and the seed; the spec hash is the versioned
 * canonical encoding from core/spec_codec.hh; the simulator version
 * constant below conservatively invalidates EVERYTHING when the
 * simulation semantics change. A warm grid re-run therefore loads
 * exactly the cells whose inputs did not change and re-simulates the
 * rest - bit-identical either way, because entries carry the integer
 * counters the miss rates are derived from.
 *
 * Entries are small JSON files written via the shared
 * tmp+fsync+atomic-rename path, each carrying its own key echo and
 * an FNV-1a checksum over the payload. A corrupt, truncated, or
 * foreign entry is quarantined - renamed to `<file>.corrupt` and
 * counted as invalidated - mirroring the daemon's pending.json
 * policy (docs/SERVICE.md): never fatal, never silently served.
 *
 * The store stays out of the way of fault injection: SuiteRunner
 * bypasses it entirely while the global injector is armed, so
 * injected faults always reach a real simulation.
 */

#ifndef IBP_SIM_RESULT_STORE_HH
#define IBP_SIM_RESULT_STORE_HH

#include <cstdint>
#include <string>

#include "robust/error.hh"

namespace ibp {

/**
 * Exclusive right to simulate one store cell, held while the owner
 * computes it (sharded lanes and overlapping requests race for it;
 * losers defer and serve the cell from the store once the owner
 * persists it). Backed by an flock(2) on a `<cell>.claim` sidecar
 * file, so the kernel releases a dead owner's claim automatically -
 * no pid files, no TTLs, no stale-claim reaping.
 *
 * flock locks the open file description, not the process, so two
 * runners inside ONE process exclude each other exactly like two
 * lane processes do. Move-only; the destructor releases.
 */
class CellClaim
{
  public:
    enum class State
    {
        /** Default-constructed: no claim was attempted. */
        None,
        /** We hold the cell; simulate it, then release(). */
        Acquired,
        /** Someone else holds it; defer and poll the store. */
        Busy,
    };

    CellClaim() = default;
    CellClaim(CellClaim &&other) noexcept;
    CellClaim &operator=(CellClaim &&other) noexcept;
    CellClaim(const CellClaim &) = delete;
    CellClaim &operator=(const CellClaim &) = delete;
    ~CellClaim();

    State state() const { return _state; }
    bool acquired() const { return _state == State::Acquired; }
    bool busy() const { return _state == State::Busy; }

    /** Drop the claim (unlink the sidecar, then close the lock).
     *  Idempotent; called by the destructor. */
    void release();

  private:
    friend class ResultStore;
    CellClaim(State state, int fd, std::string path)
        : _state(state), _fd(fd), _path(std::move(path))
    {
    }

    State _state = State::None;
    int _fd = -1;
    std::string _path;
};

/** One persisted simulation cell. */
struct StoredResult
{
    std::string benchmark;
    /** Predictor name, informational (keys never depend on it). */
    std::string predictor;
    /**
     * False for entries written back from a checkpoint journal,
     * which records only the full-precision miss rate: such entries
     * restore the grid value but carry no counters to replay into
     * cell telemetry.
     */
    bool hasCounters = true;
    std::uint64_t branches = 0;
    std::uint64_t misses = 0;
    std::uint64_t noPrediction = 0;
    std::uint64_t tableOccupancy = 0;
    std::uint64_t tableCapacity = 0;
    /** Wall times of the run that computed the cell. */
    double seconds = 0.0;
    double groupSeconds = 0.0;
    bool sharedTraversal = false;
    /** Authoritative when hasCounters is false. */
    double missPercent = 0.0;
};

class ResultStore
{
  public:
    /** Default directory used by `--result-store` with no value. */
    static constexpr const char *kDefaultDirectory =
        "out/result-store";

    /**
     * Simulator version constant: the content-address of the
     * simulation SEMANTICS. Bump whenever simulate()/simulateMany()
     * or any predictor's behaviour changes in a counter-visible way;
     * every stored cell then misses and is recomputed.
     */
    static constexpr std::uint64_t kSimulatorVersion = 1;

    /**
     * The version folded into cell keys: kSimulatorVersion, unless
     * the IBP_RESULT_STORE_VERSION environment variable overrides it
     * (CI uses the override to prove a version bump invalidates a
     * warm store without recompiling).
     */
    static std::uint64_t effectiveSimulatorVersion();

    explicit ResultStore(std::string directory);

    /**
     * The process-wide store, armed from the IBP_RESULT_STORE
     * environment variable (its value is the store directory) on
     * first use, or by configureGlobal(). nullptr when disabled.
     */
    static ResultStore *global();

    /**
     * Re-point the process-wide store at @p directory ("" disables).
     * Not thread-safe against concurrent global() users; call from
     * startup or single-threaded test setup only.
     */
    static void configureGlobal(const std::string &directory);

    const std::string &directory() const { return _directory; }

    /**
     * Content address of one cell. @p traceKey is
     * benchmarkTraceCacheKey(...); @p specHash is the canonical
     * predictor-spec hash (core/spec_codec.hh). The effective
     * simulator version is folded in here.
     */
    static std::string cellKey(const std::string &traceKey,
                               std::uint64_t specHash);

    /** File an entry for @p key lives in: `<dir>/<key>.json`. */
    std::string pathFor(const std::string &key) const;

    enum class LoadStatus
    {
        Hit,
        /** No entry on disk (the common cold case). */
        Miss,
        /** Entry existed but failed validation and was quarantined
         *  (renamed to `<file>.corrupt`). */
        Invalidated,
    };

    struct LoadOutcome
    {
        LoadStatus status = LoadStatus::Miss;
        StoredResult result;
    };

    /**
     * Load the entry for @p key. Validation covers JSON
     * well-formedness, the embedded checksum, and the key echo (a
     * foreign file under our name); any failure quarantines the
     * entry and reports Invalidated. Never throws, never fatal.
     */
    LoadOutcome load(const std::string &key) const;

    /**
     * Durably persist @p result under @p key (tmp+fsync+rename; the
     * directory is created if needed). Failures are reported, not
     * fatal: a full disk degrades the store, never the run. When
     * IBP_CACHE_MAX_BYTES is set, a successful store sweeps the
     * directory back under the cap (robust/cache_sweep.hh).
     */
    Result<void> store(const std::string &key,
                       const StoredResult &result) const;

    /** True when an entry file for @p key exists (no validation);
     *  the exactly-once journal write-back check. */
    bool contains(const std::string &key) const;

    /**
     * Try to acquire the exclusive simulate-this-cell claim for
     * @p key (non-blocking). Returns an Acquired claim on success,
     * a Busy one when a live peer holds it. An I/O failure (store
     * directory gone, fd exhaustion) degrades to a lockless
     * Acquired claim: the worst case is a duplicate simulation
     * whose duplicate store() is made benign by the atomic-rename
     * write path - availability over exclusivity.
     */
    CellClaim tryClaim(const std::string &key) const;

  private:
    std::string _directory;
};

} // namespace ibp

#endif // IBP_SIM_RESULT_STORE_HH
