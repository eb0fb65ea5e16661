#include "sim/result_store.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/spec_codec.hh"
#include "robust/atomic_file.hh"
#include "robust/cache_sweep.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

/** On-disk entry layout version (independent of the simulator
 *  version, which is part of the KEY): bump when the JSON shape or
 *  checksum rule changes, so old files quarantine cleanly. */
constexpr unsigned kEntryFormatVersion = 1;

std::unique_ptr<ResultStore> &
globalSlot()
{
    // Armed lazily from the environment so tools and tests that
    // never touch the option plumbing still get the store by
    // exporting IBP_RESULT_STORE=<dir>.
    static std::unique_ptr<ResultStore> store = [] {
        const char *env = std::getenv("IBP_RESULT_STORE");
        return (env && *env) ? std::make_unique<ResultStore>(env)
                             : nullptr;
    }();
    return store;
}

Json
payloadJson(const std::string &key, const StoredResult &result)
{
    Json payload = Json::object();
    payload.set("format", kEntryFormatVersion);
    payload.set("key", key);
    payload.set("benchmark", result.benchmark);
    payload.set("predictor", result.predictor);
    payload.set("counters", Json(result.hasCounters));
    if (result.hasCounters) {
        payload.set("branches", result.branches);
        payload.set("misses", result.misses);
        payload.set("no_prediction", result.noPrediction);
        payload.set("table_occupancy", result.tableOccupancy);
        payload.set("table_capacity", result.tableCapacity);
        payload.set("seconds", result.seconds);
        payload.set("group_seconds", result.groupSeconds);
        payload.set("shared_traversal", Json(result.sharedTraversal));
    }
    payload.set("miss_percent", result.missPercent);
    return payload;
}

} // namespace

CellClaim::CellClaim(CellClaim &&other) noexcept
    : _state(other._state), _fd(other._fd),
      _path(std::move(other._path))
{
    other._state = State::None;
    other._fd = -1;
    other._path.clear();
}

CellClaim &
CellClaim::operator=(CellClaim &&other) noexcept
{
    if (this != &other) {
        release();
        _state = other._state;
        _fd = other._fd;
        _path = std::move(other._path);
        other._state = State::None;
        other._fd = -1;
        other._path.clear();
    }
    return *this;
}

CellClaim::~CellClaim()
{
    release();
}

void
CellClaim::release()
{
    if (_state == State::Acquired && _fd >= 0) {
        // Unlink BEFORE closing: a contender that already open()ed
        // this inode fails its post-flock identity check and retries
        // against a fresh sidecar instead of "winning" a lock nobody
        // else can see.
        ::unlink(_path.c_str());
    }
    if (_fd >= 0)
        ::close(_fd);
    _fd = -1;
    _state = State::None;
    _path.clear();
}

CellClaim
ResultStore::tryClaim(const std::string &key) const
{
    std::error_code ec;
    std::filesystem::create_directories(_directory, ec);
    const std::string path = pathFor(key) + ".claim";
    for (int attempt = 0; attempt < 8; ++attempt) {
        const int fd = ::open(path.c_str(),
                              O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd < 0)
            break; // degrade to lockless (see header)
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            ::close(fd);
            return CellClaim(CellClaim::State::Busy, -1, "");
        }
        // The previous holder may have unlinked the sidecar between
        // our open() and flock(): we would then hold a lock on an
        // orphaned inode invisible to later contenders. Verify the
        // path still names our inode; retry on a fresh open if not.
        struct stat locked, current;
        if (::fstat(fd, &locked) == 0 &&
            ::stat(path.c_str(), &current) == 0 &&
            locked.st_ino == current.st_ino &&
            locked.st_dev == current.st_dev) {
            return CellClaim(CellClaim::State::Acquired, fd, path);
        }
        ::close(fd);
    }
    return CellClaim(CellClaim::State::Acquired, -1, "");
}

ResultStore::ResultStore(std::string directory)
    : _directory(std::move(directory))
{
}

ResultStore *
ResultStore::global()
{
    return globalSlot().get();
}

void
ResultStore::configureGlobal(const std::string &directory)
{
    globalSlot() = directory.empty()
                       ? nullptr
                       : std::make_unique<ResultStore>(directory);
}

std::uint64_t
ResultStore::effectiveSimulatorVersion()
{
    if (const char *env = std::getenv("IBP_RESULT_STORE_VERSION")) {
        if (*env) {
            char *end = nullptr;
            const unsigned long long parsed =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0')
                return static_cast<std::uint64_t>(parsed);
        }
    }
    return kSimulatorVersion;
}

std::string
ResultStore::cellKey(const std::string &trace_key,
                     std::uint64_t spec_hash)
{
    // Canonical pipe-delimited description, hashed with the same
    // FNV-1a the spec codec uses. The trace key (which already
    // carries the benchmark name) prefixes the file name so a store
    // directory stays human-debuggable.
    const std::string description =
        "sim=" + std::to_string(effectiveSimulatorVersion()) +
        "|trace=" + trace_key + "|spec=" + specHashHex(spec_hash);
    return trace_key + "-" + specHashHex(specBytesHash(description));
}

std::string
ResultStore::pathFor(const std::string &key) const
{
    return _directory + "/" + key + ".json";
}

bool
ResultStore::contains(const std::string &key) const
{
    std::error_code ec;
    return std::filesystem::exists(pathFor(key), ec) && !ec;
}

ResultStore::LoadOutcome
ResultStore::load(const std::string &key) const
{
    const std::string path = pathFor(key);

    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in.is_open())
            return LoadOutcome{LoadStatus::Miss, {}};
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }

    // Validate BEFORE trusting anything: parse, entry format,
    // checksum over the re-dumped payload, key echo. Any failure
    // quarantines the file (pending.json.corrupt policy) so the
    // evidence survives while the cell re-simulates.
    const auto quarantine = [&](const char *why) {
        std::error_code ec;
        std::filesystem::rename(path, path + ".corrupt", ec);
        warn("result store entry '%s' %s; quarantined to %s.corrupt",
             path.c_str(), why, path.c_str());
        return LoadOutcome{LoadStatus::Invalidated, {}};
    };

    Json entry;
    try {
        entry = Json::parse(text);
    } catch (const JsonParseError &) {
        return quarantine("is not valid JSON");
    }
    if (!entry.contains("payload") || !entry.contains("checksum"))
        return quarantine("is missing payload/checksum");
    const Json &payload = entry.at("payload");
    if (entry.at("checksum").asString() !=
        specHashHex(specBytesHash(payload.dump()))) {
        return quarantine("failed its checksum");
    }
    if (static_cast<unsigned>(payload.numberOr("format", 0)) !=
        kEntryFormatVersion) {
        return quarantine("has a foreign entry format");
    }
    if (payload.stringOr("key", "") != key)
        return quarantine("echoes a foreign key");

    StoredResult result;
    result.benchmark = payload.stringOr("benchmark", "");
    result.predictor = payload.stringOr("predictor", "");
    result.hasCounters = payload.contains("counters") &&
                         payload.at("counters").asBool();
    if (result.hasCounters) {
        if (!payload.contains("branches"))
            return quarantine("claims counters it does not carry");
        result.branches = payload.at("branches").asUint();
        result.misses = payload.at("misses").asUint();
        result.noPrediction = payload.at("no_prediction").asUint();
        result.tableOccupancy =
            payload.at("table_occupancy").asUint();
        result.tableCapacity = payload.at("table_capacity").asUint();
        result.seconds = payload.numberOr("seconds", 0.0);
        result.groupSeconds = payload.numberOr("group_seconds", 0.0);
        result.sharedTraversal =
            payload.contains("shared_traversal") &&
            payload.at("shared_traversal").asBool();
    }
    result.missPercent = payload.numberOr("miss_percent", 0.0);
    return LoadOutcome{LoadStatus::Hit, std::move(result)};
}

Result<void>
ResultStore::store(const std::string &key,
                   const StoredResult &result) const
{
    Json payload = payloadJson(key, result);
    Json entry = Json::object();
    entry.set("checksum",
              specHashHex(specBytesHash(payload.dump())));
    entry.set("payload", std::move(payload));
    const auto written =
        writeFileAtomic(pathFor(key), entry.dump(2) + "\n");
    if (written.ok())
        maybeSweepCacheDirectory(_directory);
    return written;
}

} // namespace ibp
