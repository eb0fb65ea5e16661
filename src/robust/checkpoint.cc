#include "robust/checkpoint.hh"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "util/json.hh"

namespace ibp {

namespace {

constexpr const char *kSchema = "ibp-checkpoint";
constexpr int kVersion = 1;

} // namespace

std::string
CheckpointMeta::mismatch(const CheckpointMeta &other) const
{
    if (slug != other.slug)
        return "slug '" + slug + "' vs '" + other.slug + "'";
    if (gitSha != other.gitSha)
        return "git SHA " + gitSha + " vs " + other.gitSha;
    if (std::fabs(eventScale - other.eventScale) > 1e-12) {
        return "event scale " + std::to_string(eventScale) + " vs " +
               std::to_string(other.eventScale);
    }
    if (quick != other.quick)
        return std::string("quick ") + (quick ? "true" : "false") +
               " vs " + (other.quick ? "true" : "false");
    return "";
}

CheckpointJournal::~CheckpointJournal()
{
    if (_file)
        std::fclose(_file);
}

Result<std::unique_ptr<CheckpointJournal>>
CheckpointJournal::open(const std::string &path,
                        const CheckpointMeta &meta)
{
    std::unique_ptr<CheckpointJournal> journal(new CheckpointJournal);
    journal->_path = path;

    bool fresh = true;
    bool rewrite = false;
    {
        std::ifstream in(path);
        if (in) {
            fresh = false;
            std::string line;
            std::size_t line_no = 0;
            while (std::getline(in, line)) {
                ++line_no;
                if (line.empty())
                    continue;
                Json entry;
                try {
                    entry = Json::parse(line);
                    if (line_no == 1) {
                        if (entry.stringOr("schema", "") != kSchema ||
                            static_cast<int>(entry.numberOr(
                                "version", -1)) != kVersion) {
                            return RunError::permanent(
                                "checkpoint '" + path +
                                "': not a version-" +
                                std::to_string(kVersion) +
                                " ibp checkpoint");
                        }
                        CheckpointMeta recorded;
                        recorded.slug = entry.stringOr("slug", "");
                        recorded.gitSha =
                            entry.stringOr("git_sha", "");
                        recorded.eventScale =
                            entry.numberOr("event_scale", 1.0);
                        recorded.quick =
                            entry.contains("quick") &&
                            entry.at("quick").asBool();
                        const std::string diff =
                            recorded.mismatch(meta);
                        if (!diff.empty()) {
                            return RunError::permanent(
                                "checkpoint '" + path +
                                "' belongs to a different run (" +
                                diff + "); delete it to start over");
                        }
                        continue;
                    }
                    const unsigned grid = static_cast<unsigned>(
                        entry.numberOr("grid", 0));
                    const Key key{grid, entry.stringOr("column", ""),
                                  entry.stringOr("benchmark", "")};
                    if (entry.contains("start")) {
                        // A start with no later completion is an
                        // attempt a prior incarnation died inside.
                        journal->_priorStarts[key] += 1;
                        continue;
                    }
                    journal->_cells[key] =
                        entry.at("miss").asNumber();
                } catch (const std::exception &) {
                    // A crash mid-append leaves one truncated final
                    // line; anything malformed before that means the
                    // file is not trustworthy. A truncated *header*
                    // (crash during the very first write) carries no
                    // cells, so the journal restarts from scratch.
                    if (in.peek() != std::istream::traits_type::eof()) {
                        return RunError::permanent(
                            "checkpoint '" + path +
                            "': corrupt line " +
                            std::to_string(line_no));
                    }
                    if (line_no == 1) {
                        fresh = true;
                        rewrite = true;
                    }
                    break;
                }
            }
            if (line_no == 0)
                fresh = true; // empty file: treat as new
            journal->_restored = journal->_cells.size();
        }
    }

    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
        if (ec) {
            return RunError::permanent(
                "checkpoint: cannot create directory '" +
                target.parent_path().string() + "': " + ec.message());
        }
    }
    journal->_file = std::fopen(path.c_str(), rewrite ? "w" : "a");
    if (!journal->_file) {
        return RunError::permanent("checkpoint: cannot open '" +
                                   path + "' for append: " +
                                   std::strerror(errno));
    }
    if (fresh) {
        Json header = Json::object();
        header.set("schema", kSchema);
        header.set("version", kVersion);
        header.set("slug", meta.slug);
        header.set("git_sha", meta.gitSha);
        header.set("event_scale", meta.eventScale);
        header.set("quick", meta.quick);
        const std::string line = header.dump() + "\n";
        if (std::fwrite(line.data(), 1, line.size(),
                        journal->_file) != line.size() ||
            std::fflush(journal->_file) != 0) {
            return RunError::permanent(
                "checkpoint: failed writing header to '" + path +
                "'");
        }
        fsync(fileno(journal->_file));
    }
    return journal;
}

std::optional<double>
CheckpointJournal::lookup(unsigned grid, const std::string &column,
                          const std::string &benchmark) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _cells.find(Key{grid, column, benchmark});
    if (it == _cells.end())
        return std::nullopt;
    return it->second;
}

Result<void>
CheckpointJournal::append(const CheckpointCell &cell)
{
    return appendCells({cell});
}

Result<void>
CheckpointJournal::appendCells(const std::vector<CheckpointCell> &cells)
{
    if (cells.empty())
        return Result<void>();
    std::string lines;
    for (const CheckpointCell &cell : cells) {
        Json entry = Json::object();
        entry.set("grid", cell.grid);
        entry.set("column", cell.column);
        entry.set("benchmark", cell.benchmark);
        // Json prints the shortest round-tripping decimal, so the
        // rate survives the journal bit-for-bit.
        entry.set("miss", cell.missPercent);
        lines += entry.dump() + "\n";
    }

    std::lock_guard<std::mutex> lock(_mutex);
    for (const CheckpointCell &cell : cells) {
        _cells[Key{cell.grid, cell.column, cell.benchmark}] =
            cell.missPercent;
    }
    return appendLines(lines);
}

Result<void>
CheckpointJournal::appendStart(const CheckpointStart &start)
{
    return appendStarts({start});
}

Result<void>
CheckpointJournal::appendStarts(
    const std::vector<CheckpointStart> &starts)
{
    if (starts.empty())
        return Result<void>();
    std::string lines;
    for (const CheckpointStart &start : starts) {
        Json entry = Json::object();
        entry.set("start", true);
        entry.set("grid", start.grid);
        entry.set("column", start.column);
        entry.set("benchmark", start.benchmark);
        lines += entry.dump() + "\n";
    }
    // _priorStarts is deliberately NOT updated: the count is frozen
    // at open() so it only reflects attempts of dead incarnations.
    std::lock_guard<std::mutex> lock(_mutex);
    return appendLines(lines);
}

unsigned
CheckpointJournal::startedCountPrior(
    unsigned grid, const std::string &column,
    const std::string &benchmark) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _priorStarts.find(Key{grid, column, benchmark});
    return it == _priorStarts.end() ? 0 : it->second;
}

/** Write raw @p lines, flushed and fsynced. Caller holds _mutex. */
Result<void>
CheckpointJournal::appendLines(const std::string &lines)
{
    if (std::fwrite(lines.data(), 1, lines.size(), _file) !=
            lines.size() ||
        std::fflush(_file) != 0) {
        return RunError::permanent(
            "checkpoint: failed appending to '" + _path + "': " +
            std::strerror(errno));
    }
    // One fsync per append is cheap next to the seconds of
    // simulation the record represents, and bounds the loss after
    // SIGKILL to the in-flight cell.
    fsync(fileno(_file));
    return Result<void>();
}

} // namespace ibp
