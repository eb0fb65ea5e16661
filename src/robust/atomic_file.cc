#include "robust/atomic_file.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <unistd.h>

namespace ibp {

Result<void>
writeFileAtomic(const std::string &path, std::string_view contents)
{
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
        if (ec) {
            return RunError::permanent(
                "cannot create directory '" +
                target.parent_path().string() + "': " + ec.message());
        }
    }

    // A temp name of its own per writer (pid + per-process counter):
    // concurrent writers of one path - two daemon lanes storing the
    // same cache key, two threads of one process - must never share,
    // truncate or rename each other's temp file. The last rename wins
    // and every reader sees one writer's whole content.
    static std::atomic<unsigned long> counter{0};
    const std::string temp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    std::FILE *file = std::fopen(temp.c_str(), "wb");
    if (!file) {
        return RunError::permanent("cannot open '" + temp +
                                   "' for writing: " +
                                   std::strerror(errno));
    }
    const bool wrote =
        std::fwrite(contents.data(), 1, contents.size(), file) ==
            contents.size() &&
        std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
    const int close_status = std::fclose(file);
    if (!wrote || close_status != 0) {
        std::remove(temp.c_str());
        return RunError::permanent("failed writing '" + temp +
                                   "': " + std::strerror(errno));
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        const std::string reason = std::strerror(errno);
        std::remove(temp.c_str());
        return RunError::permanent("cannot rename '" + temp +
                                   "' to '" + path + "': " + reason);
    }
    return Result<void>();
}

} // namespace ibp
