#include "serve/client.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "robust/fault_injection.hh"
#include "serve/protocol.hh"

namespace ibp {

namespace {

struct FdCloser
{
    int fd;
    ~FdCloser()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/** Outcome of one complete client<->daemon conversation attempt. */
struct Conversation
{
    enum class Verdict {
        Served,        ///< Artifact received.
        Fallback,      ///< Give up on the daemon, run in-process.
        RetryLater,    ///< Transient trouble; back off and retry.
        Resubmit,      ///< Admission rejection; honour retry-after.
    };
    Verdict verdict = Verdict::Fallback;
    std::string reason;
    double retryAfterSeconds = 0.0;
    ExperimentRunResult result;
};

bool
startsWith(const std::string &text, const char *prefix)
{
    return text.rfind(prefix, 0) == 0;
}

void
sleepSeconds(double seconds)
{
    if (seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
    }
}

/** Effective per-frame receive deadline (see ClientOptions). */
double
resolveReceiveTimeout(double configured)
{
    if (configured >= 0.0)
        return configured;
    if (const char *env = std::getenv("IBP_DAEMON_TIMEOUT")) {
        const double seconds = std::atof(env);
        if (seconds >= 0.0)
            return seconds;
    }
    return 300.0;
}

Conversation
converse(const std::string &socket_path, const RunRequest &request,
         unsigned attempt, bool echo, double receive_timeout)
{
    Conversation out;
    auto connected = connectDaemon(socket_path);
    if (!connected.ok()) {
        const std::string cause = connected.error().describe();
        out.verdict = startsWith(connected.error().message,
                                 "no daemon")
                          ? Conversation::Verdict::Fallback
                          : Conversation::Verdict::RetryLater;
        out.reason = cause;
        return out;
    }
    FdCloser closer{connected.value()};
    const int fd = closer.fd;
    bool progress_echoed = false;
    const auto end_progress_line = [&] {
        if (progress_echoed) {
            std::printf("\n");
            progress_echoed = false;
        }
    };
    try {
        // The serve.io site models a flaky transport on the CLIENT
        // side: the retry-then-fallback ladder is tested by arming
        // it, no misbehaving server needed (docs/SERVICE.md).
        const FaultInjector &injector = request.config.faults;
        injector.check("serve.io", request.slug, attempt);
        const auto sent = writeFrame(fd, request.toJson());
        if (!sent.ok()) {
            out.verdict = Conversation::Verdict::RetryLater;
            out.reason = sent.error().describe();
            return out;
        }
        for (;;) {
            injector.check("serve.io", request.slug, attempt);
            auto frame = readFrame(fd, receive_timeout);
            if (!frame.ok()) {
                end_progress_line();
                out.verdict = Conversation::Verdict::RetryLater;
                out.reason = frame.error().describe();
                return out;
            }
            const Json &message = frame.value();
            const std::string type = message.stringOr("type", "");
            if (type == "accepted") {
                if (echo) {
                    const bool coalesced =
                        message.contains("coalesced") &&
                        message.at("coalesced").asBool();
                    std::printf("(daemon accepted job %.0f%s)\n",
                                message.numberOr("job", 0),
                                coalesced
                                    ? ", coalesced onto a running "
                                      "twin"
                                    : "");
                    std::fflush(stdout);
                }
            } else if (type == "progress") {
                if (echo) {
                    std::printf("\r  [served] %.0f cell(s) done",
                                message.numberOr("cells", 0));
                    std::fflush(stdout);
                    progress_echoed = true;
                }
            } else if (type == "rejected") {
                out.verdict = Conversation::Verdict::Resubmit;
                out.reason = "admission rejected (queue full)";
                out.retryAfterSeconds =
                    message.numberOr("retry_after_ms", 250.0) /
                    1000.0;
                return out;
            } else if (type == "incompatible") {
                out.verdict = Conversation::Verdict::Fallback;
                out.reason = "daemon incompatible: " +
                             message.stringOr("reason", "?");
                return out;
            } else if (type == "drained") {
                end_progress_line();
                out.verdict = Conversation::Verdict::RetryLater;
                out.reason = "daemon drained mid-run";
                return out;
            } else if (type == "error") {
                end_progress_line();
                out.verdict = Conversation::Verdict::Fallback;
                out.reason = "daemon error: " +
                             message.stringOr("message", "?");
                return out;
            } else if (type == "artifact") {
                end_progress_line();
                if (!message.contains("artifact")) {
                    out.verdict = Conversation::Verdict::Fallback;
                    out.reason = "artifact frame without artifact";
                    return out;
                }
                out.result.artifact =
                    std::make_shared<RunArtifact>(
                        RunArtifact::fromJson(
                            message.at("artifact")));
                out.result.exitCode = static_cast<int>(
                    message.numberOr("exit_code", 0));
                out.result.restoredCells = static_cast<std::size_t>(
                    message.numberOr("restored_cells", 0));
                out.result.seconds =
                    message.numberOr("seconds", 0.0);
                out.verdict = Conversation::Verdict::Served;
                return out;
            }
            // Unknown frame types are skipped for forward compat.
        }
    } catch (const RunException &exception) {
        end_progress_line();
        out.verdict = exception.error().retryable()
                          ? Conversation::Verdict::RetryLater
                          : Conversation::Verdict::Fallback;
        out.reason = exception.error().describe();
        return out;
    } catch (const std::exception &exception) {
        end_progress_line();
        out.verdict = Conversation::Verdict::Fallback;
        out.reason = exception.what();
        return out;
    }
}

/** Write the artifact to jsonDir, if set; a failure is fatal. */
void
persistArtifact(const ExperimentDef &def,
                const ExperimentOptions &options,
                ExperimentRunResult &result)
{
    if (options.jsonDir.empty())
        return;
    try {
        std::filesystem::create_directories(options.jsonDir);
        writeArtifactFile(*result.artifact, options.jsonDir, def.slug,
                          *options.config, options.echo);
    } catch (const std::exception &exception) {
        result.exitCode = 1;
        result.error = exception.what();
        if (options.echo)
            std::fprintf(stderr, "experiment failed: %s\n",
                         exception.what());
    }
}

/**
 * Render a served artifact exactly as the in-process path would:
 * tables and notes to stdout, CSVs to csvDir, the artifact JSON to
 * jsonDir, the failed-cell warning to stderr.
 */
void
renderServed(const ExperimentDef &def,
             const ExperimentOptions &options,
             ExperimentRunResult &result)
{
    const RunArtifact &artifact = *result.artifact;
    if (options.echo) {
        std::printf("=== %s: %s ===\n", def.slug.c_str(),
                    def.title.c_str());
        const ServeMetrics serve = artifact.metrics.serve();
        std::printf("(served by ibpd: %u request(s)%s, queued "
                    "%.3f s)\n\n",
                    serve.requests, serve.warm ? ", warm" : "",
                    serve.queueSeconds);
        for (const ResultTable &table : artifact.tables)
            table.print();
        for (const std::string &note : artifact.notes)
            std::printf("%s\n\n", note.c_str());
        std::fflush(stdout);
    }
    try {
        if (!options.csvDir.empty()) {
            std::filesystem::create_directories(options.csvDir);
            for (std::size_t i = 0; i < artifact.tables.size();
                 ++i) {
                const std::string path =
                    options.csvDir + "/" + def.slug + "_" +
                    std::to_string(i) + ".csv";
                artifact.tables[i].writeCsv(path);
                if (options.echo)
                    std::printf("(csv written to %s)\n\n",
                                path.c_str());
            }
        }
    } catch (const std::exception &exception) {
        result.exitCode = 1;
        result.error = exception.what();
        if (options.echo)
            std::fprintf(stderr, "experiment failed: %s\n",
                         exception.what());
        return;
    }
    persistArtifact(def, options, result);
    if (options.echo && result.exitCode != 1) {
        warnFailedCells(artifact);
        std::printf("[%s done in %.1f s, served]\n",
                    def.slug.c_str(), result.seconds);
    }
}

} // namespace

ExperimentRunResult
runExperimentViaDaemon(const ExperimentDef &def,
                       const ExperimentOptions &requested,
                       const ClientOptions &client,
                       ServedOutcome *outcome)
{
    ServedOutcome scratch;
    ServedOutcome &served = outcome != nullptr ? *outcome : scratch;
    served = ServedOutcome{};

    // One config for the request and for a fallback run alike.
    ExperimentOptions options = requested;
    options.config = requested.runConfig();
    const std::string socket_path =
        daemonSocketPath(client.socketPath);
    RunRequest base =
        makeRunRequest(def.slug, options.quick, *options.config);
    base.priority = client.priority;

    const unsigned max_attempts =
        client.maxAttempts == 0 ? 1 : client.maxAttempts;
    const double receive_timeout =
        resolveReceiveTimeout(client.receiveTimeoutSeconds);
    std::string fallback_reason;
    unsigned attempt = 1;
    while (true) {
        served.attempts = attempt;
        RunRequest request = base;
        request.rejects = served.rejects;
        Conversation conversation =
            converse(socket_path, request, attempt, options.echo,
                     receive_timeout);
        if (conversation.verdict ==
            Conversation::Verdict::Served) {
            served.served = true;
            renderServed(def, options, conversation.result);
            return conversation.result;
        }
        if (conversation.verdict ==
            Conversation::Verdict::Fallback) {
            fallback_reason = conversation.reason;
            break;
        }
        if (conversation.verdict ==
            Conversation::Verdict::Resubmit) {
            ++served.rejects;
            if (served.rejects > client.maxRejects) {
                fallback_reason =
                    "admission retries exhausted (" +
                    std::to_string(served.rejects) +
                    " rejections)";
                break;
            }
            sleepSeconds(conversation.retryAfterSeconds);
            continue; // a rejection does not consume an attempt
        }
        // RetryLater: transient transport trouble.
        if (attempt >= max_attempts) {
            fallback_reason = conversation.reason + " (after " +
                              std::to_string(attempt) +
                              " attempt(s))";
            break;
        }
        sleepSeconds(client.backoffSeconds *
                     static_cast<double>(attempt));
        ++attempt;
    }

    served.served = false;
    served.fallbackReason = fallback_reason;
    if (options.echo) {
        std::printf("(daemon unavailable: %s; running "
                    "in-process)\n\n",
                    fallback_reason.c_str());
        std::fflush(stdout);
    }
    // Written here, once the artifact records why it was not served.
    ExperimentOptions local = options;
    local.jsonDir.clear();
    ExperimentRunResult result = runExperimentInProcess(def, local);
    if (result.artifact) {
        result.artifact->metrics.recordServeFallback(fallback_reason);
        persistArtifact(def, options, result);
    }
    return result;
}

} // namespace ibp
