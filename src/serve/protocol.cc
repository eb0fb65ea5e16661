#include "serve/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "report/artifact.hh"
#include "sim/suite_runner.hh"
#include "synth/benchmark_suite.hh"

namespace ibp {

namespace {

RunError
ioError(const std::string &what)
{
    return RunError::transient(what + ": " +
                               std::strerror(errno));
}

/** Write all of @p data, riding out EINTR and partial writes.
 *  MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not
 *  kill the process with SIGPIPE. */
Result<void>
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::send(fd, data + written, size - written,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return ioError("socket write failed");
        }
        written += static_cast<std::size_t>(n);
    }
    return {};
}

Result<void>
readAll(int fd, char *data, std::size_t size)
{
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::recv(fd, data + got, size - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return ioError("socket read failed");
        }
        if (n == 0) {
            return RunError::transient(
                "connection closed mid-frame");
        }
        got += static_cast<std::size_t>(n);
    }
    return {};
}

/** readAll against an absolute deadline: poll for readability with
 *  the remaining budget before every recv (EINTR re-computes the
 *  remainder instead of restarting the full timeout). */
Result<void>
readAllUntil(int fd, char *data, std::size_t size,
             std::chrono::steady_clock::time_point deadline)
{
    std::size_t got = 0;
    while (got < size) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (remaining <= 0) {
            return RunError::transient(
                "socket read timed out mid-frame");
        }
        pollfd poller;
        poller.fd = fd;
        poller.events = POLLIN;
        poller.revents = 0;
        const int ready = ::poll(
            &poller, 1,
            static_cast<int>(std::min<long long>(remaining,
                                                 60 * 1000)));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return ioError("socket poll failed");
        }
        if (ready == 0)
            continue; // re-check the deadline
        const ssize_t n = ::recv(fd, data + got, size - got, 0);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return ioError("socket read failed");
        }
        if (n == 0) {
            return RunError::transient(
                "connection closed mid-frame");
        }
        got += static_cast<std::size_t>(n);
    }
    return {};
}

Result<void>
fillSocketAddress(const std::string &path, sockaddr_un &address)
{
    std::memset(&address, 0, sizeof(address));
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) {
        return RunError::permanent("socket path too long: '" + path +
                                   "'");
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    return {};
}

} // namespace

std::string
daemonSocketPath(const std::string &override_)
{
    if (!override_.empty())
        return override_;
    if (const char *env = std::getenv("IBP_DAEMON")) {
        if (*env)
            return env;
    }
    return kDefaultDaemonSocket;
}

Result<void>
writeFrame(int fd, const Json &message)
{
    const std::string body = message.dump();
    if (body.size() > kMaxFrameBytes)
        return RunError::permanent("frame exceeds size ceiling");
    char prefix[4];
    const auto size = static_cast<std::uint32_t>(body.size());
    prefix[0] = static_cast<char>(size & 0xff);
    prefix[1] = static_cast<char>((size >> 8) & 0xff);
    prefix[2] = static_cast<char>((size >> 16) & 0xff);
    prefix[3] = static_cast<char>((size >> 24) & 0xff);
    const auto wrote_prefix = writeAll(fd, prefix, sizeof(prefix));
    if (!wrote_prefix.ok())
        return wrote_prefix;
    return writeAll(fd, body.data(), body.size());
}

Result<Json>
readFrame(int fd)
{
    unsigned char prefix[4];
    const auto got_prefix =
        readAll(fd, reinterpret_cast<char *>(prefix), sizeof(prefix));
    if (!got_prefix.ok())
        return got_prefix.error();
    const std::uint32_t size =
        static_cast<std::uint32_t>(prefix[0]) |
        (static_cast<std::uint32_t>(prefix[1]) << 8) |
        (static_cast<std::uint32_t>(prefix[2]) << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    if (size > kMaxFrameBytes) {
        return RunError::transient(
            "frame length " + std::to_string(size) +
            " exceeds ceiling (corrupt stream?)");
    }
    std::string body(size, '\0');
    const auto got_body = readAll(fd, body.data(), body.size());
    if (!got_body.ok())
        return got_body.error();
    try {
        return Json::parse(body);
    } catch (const std::exception &error) {
        return RunError::transient(std::string("malformed frame: ") +
                                   error.what());
    }
}

Result<Json>
readFrame(int fd, double timeout_seconds)
{
    if (timeout_seconds <= 0.0)
        return readFrame(fd);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    unsigned char prefix[4];
    const auto got_prefix = readAllUntil(
        fd, reinterpret_cast<char *>(prefix), sizeof(prefix),
        deadline);
    if (!got_prefix.ok())
        return got_prefix.error();
    const std::uint32_t size =
        static_cast<std::uint32_t>(prefix[0]) |
        (static_cast<std::uint32_t>(prefix[1]) << 8) |
        (static_cast<std::uint32_t>(prefix[2]) << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    if (size > kMaxFrameBytes) {
        return RunError::transient(
            "frame length " + std::to_string(size) +
            " exceeds ceiling (corrupt stream?)");
    }
    std::string body(size, '\0');
    const auto got_body =
        readAllUntil(fd, body.data(), body.size(), deadline);
    if (!got_body.ok())
        return got_body.error();
    try {
        return Json::parse(body);
    } catch (const std::exception &error) {
        return RunError::transient(std::string("malformed frame: ") +
                                   error.what());
    }
}

Result<int>
connectDaemon(const std::string &socket_path)
{
    sockaddr_un address;
    const auto filled = fillSocketAddress(socket_path, address);
    if (!filled.ok())
        return filled.error();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return ioError("socket() failed");
    if (::connect(fd, reinterpret_cast<sockaddr *>(&address),
                  sizeof(address)) != 0) {
        int cause = errno;
        if (cause == EINTR) {
            // POSIX: an interrupted connect() keeps completing in
            // the background; calling connect() again would return
            // EALREADY. Wait for writability and read the final
            // status instead.
            pollfd poller;
            poller.fd = fd;
            poller.events = POLLOUT;
            poller.revents = 0;
            int ready;
            do {
                ready = ::poll(&poller, 1, -1);
            } while (ready < 0 && errno == EINTR);
            int status = 0;
            socklen_t length = sizeof(status);
            if (ready > 0 &&
                ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &status,
                             &length) == 0 &&
                status == 0) {
                return fd;
            }
            cause = status != 0 ? status : errno;
        }
        ::close(fd);
        if (cause == ENOENT || cause == ECONNREFUSED) {
            return RunError::transient("no daemon at '" +
                                       socket_path + "'");
        }
        errno = cause;
        return ioError("connect to '" + socket_path + "' failed");
    }
    return fd;
}

Result<int>
listenDaemon(const std::string &socket_path)
{
    const auto parent =
        std::filesystem::path(socket_path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            return RunError::permanent(
                "cannot create socket directory '" +
                parent.string() + "': " + ec.message());
        }
    }
    sockaddr_un address;
    const auto filled = fillSocketAddress(socket_path, address);
    if (!filled.ok())
        return filled.error();

    // A connectable socket file means another daemon is alive there;
    // refusing beats silently stealing its clients. A stale file
    // (daemon died without unlinking) is replaced.
    struct stat info;
    if (::stat(socket_path.c_str(), &info) == 0) {
        auto probe = connectDaemon(socket_path);
        if (probe.ok()) {
            ::close(probe.value());
            return RunError::permanent(
                "another daemon is already listening on '" +
                socket_path + "'");
        }
        ::unlink(socket_path.c_str());
    }

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        return RunError::permanent(
            std::string("socket() failed: ") + std::strerror(errno));
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&address),
               sizeof(address)) != 0 ||
        ::listen(fd, 64) != 0) {
        const RunError error = RunError::permanent(
            "cannot listen on '" + socket_path +
            "': " + std::strerror(errno));
        ::close(fd);
        return error;
    }
    return fd;
}

std::string
RunRequest::signature() const
{
    // Every knob that shapes the artifact, canonically rendered.
    // The old slug+quick signature let two requests differing only
    // in event scale coalesce onto one
    // execution - one of them got the other's artifact. %.17g keeps
    // distinct doubles distinct (to_string truncates at 6 digits).
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%.17g", eventScale);
    return slug + "|" + (quick ? "q" : "f") + "|e" + scale + "|t" +
           std::to_string(threads) + "|x" + faultSpec;
}

std::string
RunRequest::incompatibilityWith(const RunRequest &mine) const
{
    if (eventScale != mine.eventScale) {
        return "event scale mismatch (client " +
               std::to_string(eventScale) + ", server " +
               std::to_string(mine.eventScale) + ")";
    }
    if (threads != mine.threads) {
        return "thread count mismatch (client " +
               std::to_string(threads) + ", server " +
               std::to_string(mine.threads) + ")";
    }
    if (faultSpec != mine.faultSpec) {
        return "fault injection mismatch (client '" + faultSpec +
               "', server '" + mine.faultSpec + "')";
    }
    const bool shas_known = !gitSha.empty() && gitSha != "unknown" &&
                            !mine.gitSha.empty() &&
                            mine.gitSha != "unknown";
    if (shas_known && gitSha != mine.gitSha) {
        return "build mismatch (client " + gitSha + ", server " +
               mine.gitSha + ")";
    }
    return "";
}

Json
RunRequest::toJson() const
{
    Json json = Json::object();
    json.set("type", "run");
    json.set("slug", slug);
    json.set("quick", Json(quick));
    json.set("priority", priority);
    json.set("rejects", rejects);
    json.set("event_scale", eventScale);
    json.set("threads", threads);
    json.set("git_sha", gitSha);
    json.set("fault_inject", faultSpec);
    return json;
}

Result<RunRequest>
RunRequest::fromJson(const Json &json)
{
    RunRequest request;
    request.slug = json.stringOr("slug", "");
    if (request.slug.empty())
        return RunError::permanent("run request without a slug");
    request.quick =
        json.contains("quick") && json.at("quick").asBool();
    request.priority =
        static_cast<int>(json.numberOr("priority", 0));
    request.rejects =
        static_cast<unsigned>(json.numberOr("rejects", 0));
    request.eventScale = json.numberOr("event_scale", 1.0);
    request.threads =
        static_cast<unsigned>(json.numberOr("threads", 0));
    request.gitSha = json.stringOr("git_sha", "");
    request.faultSpec = json.stringOr("fault_inject", "");
    return request;
}

RunRequest
makeRunRequest(const std::string &slug, bool quick)
{
    RunRequest request;
    request.slug = slug;
    request.quick = quick;
    request.eventScale = eventScale();
    request.threads = simulationThreads();
    request.gitSha = buildManifest().gitSha;
    if (const char *env = std::getenv("IBP_FAULT_INJECT"))
        request.faultSpec = env;
    return request;
}

} // namespace ibp
