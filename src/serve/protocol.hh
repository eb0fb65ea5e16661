/**
 * @file
 * Wire protocol of the ibpd sweep service (docs/SERVICE.md).
 *
 * Transport: a unix-domain stream socket carrying length-prefixed
 * JSON frames - a 4-byte little-endian payload length followed by
 * that many bytes of compact JSON. Frames above kMaxFrameBytes are
 * rejected before allocation, so a corrupt peer cannot make either
 * side swallow a bogus multi-gigabyte length.
 *
 * Conversation: the client sends exactly ONE request frame ("run",
 * "ping", "stats" or "shutdown") and then only reads. For a "run"
 * the server streams event frames - "accepted" or "rejected" or
 * "incompatible" first, then zero or more "progress" events, then a
 * terminal "artifact", "drained" or "error" frame - and closes.
 * Keeping the client write-once/read-rest gives each side a single
 * writer per socket and makes torn-frame handling trivial.
 *
 * Every frame I/O on the CLIENT side passes the `serve.io` fault
 * site of the client's config (IBP_FAULT_INJECT=serve.io:PROB), which
 * is how the retry-then-fallback path is tested without a
 * misbehaving server.
 */

#ifndef IBP_SERVE_PROTOCOL_HH
#define IBP_SERVE_PROTOCOL_HH

#include <cstddef>
#include <string>

#include "robust/error.hh"
#include "robust/run_config.hh"
#include "util/json.hh"

namespace ibp {

/** Default daemon socket; overridable via IBP_DAEMON and the
 *  --daemon=SOCKET / ibpd --socket=PATH flags. */
constexpr const char *kDefaultDaemonSocket = "out/ibpd.sock";

/** Frame payload ceiling (a full-suite artifact is ~1 MiB). */
constexpr std::size_t kMaxFrameBytes = 64u << 20;

/**
 * Resolve the effective socket path: @p override when non-empty,
 * else the IBP_DAEMON environment variable, else the default.
 */
std::string daemonSocketPath(const std::string &override_ = "");

/**
 * Write @p message as one frame to @p fd. Partial writes and EINTR
 * are retried; a closed peer or I/O error is a transient RunError
 * (the client's retry/fallback machinery handles it).
 */
Result<void> writeFrame(int fd, const Json &message);

/**
 * Read one frame from @p fd. EOF before a complete frame, an
 * oversized length prefix, or malformed JSON is a transient
 * RunError.
 */
Result<Json> readFrame(int fd);

/**
 * readFrame with a receive deadline: a frame that does not complete
 * within @p timeoutSeconds of the call is a transient RunError whose
 * message contains "timed out", so the client's retry/fallback
 * ladder treats a hung daemon like any other transport failure.
 * timeoutSeconds <= 0 blocks forever (plain readFrame).
 */
Result<Json> readFrame(int fd, double timeoutSeconds);

/** Connect to the daemon socket. ENOENT/ECONNREFUSED (no daemon) is
 *  a transient RunError whose message starts with "no daemon". */
Result<int> connectDaemon(const std::string &socketPath);

/**
 * Bind and listen on @p socketPath (parent directories created, a
 * stale socket file from a dead daemon replaced). Permanent RunError
 * when the path cannot be bound.
 */
Result<int> listenDaemon(const std::string &socketPath);

/**
 * One "run" request. The server runs the job under the request's
 * RunConfig, not its own environment, so a served artifact is
 * bit-identical to the client's in-process one.
 */
struct RunRequest
{
    std::string slug;
    bool quick = false;
    /** Higher runs first among queued jobs (FIFO within a level). */
    int priority = 0;
    /** Admission rejections this request already rode out; folded
     *  into the artifact's metrics.serve.admission_rejects. */
    unsigned rejects = 0;
    std::string gitSha;
    /** The config the job runs under. */
    RunConfig config;

    /**
     * Coalescing signature: requests with equal signatures share one
     * execution. Folds in EVERY artifact-affecting knob (slug, quick,
     * the whole config); priority/rejects stay out on purpose, and
     * the git sha is left to the compatibility check
     * (incompatibilityWith), which knows how to treat unknown shas.
     */
    std::string signature() const;

    /** Why a server built from @p serverSha must refuse this
     *  request, or "": known shas must match (release builds may
     *  not know theirs); all else travels in the config. */
    std::string incompatibilityWith(const std::string &serverSha) const;

    /** File-name stem of this request's journals: slug, "-quick",
     *  and a config hash, so jobs differing only in config never
     *  share a journal. */
    std::string journalStem() const;

    Json toJson() const;
    /** Malformed input is an error, never fatal. */
    static Result<RunRequest> fromJson(const Json &json);
};

/** A request for @p slug that runs under @p config. */
RunRequest makeRunRequest(const std::string &slug, bool quick,
                          const RunConfig &config);

} // namespace ibp

#endif // IBP_SERVE_PROTOCOL_HH
