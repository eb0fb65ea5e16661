#include "serve/server.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "robust/atomic_file.hh"
#include "sim/result_store.hh"

namespace ibp {

namespace {

Json
errorFrame(const std::string &message)
{
    Json json = Json::object();
    json.set("type", "error");
    json.set("message", message);
    return json;
}

Json
drainedFrame()
{
    Json json = Json::object();
    json.set("type", "drained");
    return json;
}

double
secondsSince(std::chrono::steady_clock::time_point then)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - then)
        .count();
}

} // namespace

SweepServer::SweepServer(ServerConfig config)
    : _config(std::move(config)),
      _socketPath(daemonSocketPath(_config.socketPath))
{
}

SweepServer::~SweepServer()
{
    if (_started.load() && !_stopped.load()) {
        requestDrain();
        waitStopped();
    }
}

Result<void>
SweepServer::start()
{
    std::error_code ec;
    std::filesystem::create_directories(_config.stateDir, ec);
    if (ec) {
        return RunError::permanent("cannot create state dir '" +
                                   _config.stateDir +
                                   "': " + ec.message());
    }
    // Fork the lane pool FIRST: before the listen socket, the drain
    // pipe and our own threads exist, so the initial lanes inherit
    // as little as possible and fork from the quietest process this
    // server will ever be.
    if (_config.lanes > 0) {
        SupervisorConfig lanes;
        lanes.lanes = _config.lanes;
        lanes.cellCeilingSeconds = _config.cellCeilingSeconds;
        lanes.jobCeilingSeconds = _config.jobCeilingSeconds;
        lanes.heartbeatTimeoutSeconds =
            _config.heartbeatTimeoutSeconds;
        lanes.maxRetriesWithoutProgress = _config.laneMaxRetries;
        lanes.retryBackoffSeconds = _config.laneRetryBackoffSeconds;
        lanes.echo = _config.echo;
        _supervisor = std::make_unique<LaneSupervisor>(lanes);
        const auto started = _supervisor->start();
        if (!started.ok()) {
            _supervisor.reset();
            return started;
        }
    }
    auto listening = listenDaemon(_socketPath);
    if (!listening.ok()) {
        if (_supervisor)
            _supervisor->shutdown();
        return listening.error();
    }
    _listenFd = listening.value();
    if (::pipe(_drainPipe) != 0) {
        const RunError error = RunError::permanent(
            std::string("pipe() failed: ") + std::strerror(errno));
        ::close(_listenFd);
        _listenFd = -1;
        if (_supervisor)
            _supervisor->shutdown();
        return error;
    }
    restorePending();
    _started.store(true);
    const unsigned runners =
        _config.lanes > 0 ? _config.lanes : 1u;
    _runningJobs.assign(runners, nullptr);
    _acceptThread = std::thread([this] { acceptLoop(); });
    for (unsigned lane = 0; lane < runners; ++lane) {
        _runnerThreads.emplace_back(
            [this, lane] { runnerLoop(lane); });
    }
    logLine("listening on %s (%zu experiments registered, %u %s)",
            _socketPath.c_str(), experimentSlugs().size(), runners,
            _config.lanes > 0 ? "lanes" : "in-process runner");
    return {};
}

void
SweepServer::acceptLoop()
{
    for (;;) {
        pollfd fds[2];
        fds[0].fd = _listenFd;
        fds[0].events = POLLIN;
        fds[0].revents = 0;
        fds[1].fd = _drainPipe[0];
        fds[1].events = POLLIN;
        fds[1].revents = 0;
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0)
            break; // drain requested
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(_connMutex);
            _connections.push_back(conn);
        }
        conn->thread =
            std::thread([this, conn] { serveConnection(conn); });
        reapConnections();
    }
}

void
SweepServer::reapConnections()
{
    std::lock_guard<std::mutex> lock(_connMutex);
    for (auto it = _connections.begin(); it != _connections.end();) {
        // finished is set only after the serving thread's last
        // statement touching shared state, so the join is immediate.
        if ((*it)->finished.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            it = _connections.erase(it);
        } else {
            ++it;
        }
    }
}

void
SweepServer::serveConnection(const std::shared_ptr<Connection> &conn)
{
    const int fd = conn->fd;
    auto frame = readFrame(fd);
    if (frame.ok()) {
        const Json &message = frame.value();
        const std::string type = message.stringOr("type", "");
        if (type == "ping") {
            Json reply = Json::object();
            reply.set("type", "pong");
            reply.set("pid", static_cast<double>(::getpid()));
            reply.set("experiments", experimentSlugs().size());
            writeFrame(fd, reply);
        } else if (type == "stats") {
            handleStats(fd);
        } else if (type == "shutdown") {
            Json reply = Json::object();
            reply.set("type", "shutting_down");
            writeFrame(fd, reply);
            requestDrain();
        } else if (type == "run") {
            auto request = RunRequest::fromJson(message);
            if (!request.ok())
                writeFrame(fd,
                           errorFrame(request.error().describe()));
            else
                handleRun(fd, request.value());
        } else {
            writeFrame(fd, errorFrame("unknown request type '" +
                                      type + "'"));
        }
    }
    {
        std::lock_guard<std::mutex> lock(_connMutex);
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
    conn->finished.store(true, std::memory_order_release);
}

void
SweepServer::handleStats(int fd)
{
    const ServerStats counters = stats();
    Json reply = Json::object();
    reply.set("type", "stats");
    reply.set("jobs_accepted", counters.jobsAccepted);
    reply.set("requests_coalesced", counters.requestsCoalesced);
    reply.set("requests_rejected", counters.requestsRejected);
    reply.set("requests_incompatible",
              counters.requestsIncompatible);
    reply.set("jobs_completed", counters.jobsCompleted);
    reply.set("jobs_drained", counters.jobsDrained);
    reply.set("warm_hits", counters.warmHits);
    reply.set("jobs_restored", counters.jobsRestored);
    reply.set("lanes", _config.lanes);
    reply.set("lanes_forked", counters.lanesForked);
    reply.set("lane_crashes", counters.laneCrashes);
    reply.set("lane_kills", counters.laneKills);
    reply.set("jobs_retried", counters.jobsRetried);
    reply.set("jobs_sharded", counters.jobsSharded);
    reply.set("shards_planned", counters.shardsPlanned);
    reply.set("shards_requeued", counters.shardsRequeued);
    reply.set("shards_abandoned", counters.shardsAbandoned);
    reply.set("shard_cells_stolen", counters.shardCellsStolen);
    reply.set("overlap_cells_coalesced",
              counters.overlapCellsCoalesced);
    {
        std::lock_guard<std::mutex> lock(_queueMutex);
        reply.set("queue_depth", queuedJobCountLocked());
        // "running": first busy runner's slug (compat with the
        // single-runner era); "running_jobs" lists all of them.
        Json running_jobs = Json::array();
        Json first;
        for (const auto &job : _runningJobs) {
            if (!job)
                continue;
            if (first.isNull())
                first = Json(job->request.slug);
            running_jobs.push(Json(job->request.slug));
        }
        reply.set("running", first);
        reply.set("running_jobs", std::move(running_jobs));
    }
    writeFrame(fd, reply);
}

void
SweepServer::handleRun(int fd, const RunRequest &request)
{
    const std::string reason =
        request.incompatibilityWith(buildManifest().gitSha);
    if (!reason.empty()) {
        {
            std::lock_guard<std::mutex> lock(_statsMutex);
            ++_stats.requestsIncompatible;
        }
        logLine("refusing %s: %s", request.slug.c_str(),
                reason.c_str());
        Json reply = Json::object();
        reply.set("type", "incompatible");
        reply.set("reason", reason);
        writeFrame(fd, reply);
        return;
    }
    if (findExperiment(request.slug) == nullptr) {
        writeFrame(fd, errorFrame("unknown experiment '" +
                                  request.slug + "'"));
        return;
    }

    std::shared_ptr<Job> job;
    bool coalesced = false;
    std::size_t queue_depth = 0;
    {
        std::lock_guard<std::mutex> lock(_queueMutex);
        if (_draining) {
            writeFrame(fd, drainedFrame());
            return;
        }
        // Coalesce onto an identical queued or running job. The
        // state check happens under the job's own mutex: a job that
        // just finished (Done under job->mutex, _running not yet
        // cleared) must not gain a rider that missed its artifact's
        // serve record.
        const std::string signature = request.signature();
        auto try_attach = [&](const std::shared_ptr<Job> &candidate) {
            if (!candidate ||
                candidate->request.signature() != signature)
                return false;
            std::lock_guard<std::mutex> job_lock(candidate->mutex);
            if (candidate->state != JobState::Queued &&
                candidate->state != JobState::Running)
                return false;
            ++candidate->subscribers;
            ++candidate->coalesced;
            candidate->clientRejects += request.rejects;
            job = candidate;
            return true;
        };
        for (const auto &running : _runningJobs) {
            if (try_attach(running)) {
                coalesced = true;
                break;
            }
        }
        if (!coalesced) {
            for (const auto &queued : _queue) {
                if (try_attach(queued.job)) {
                    coalesced = true;
                    break;
                }
            }
        }
        if (!coalesced) {
            if (queuedJobCountLocked() >= _config.maxQueueDepth) {
                {
                    std::lock_guard<std::mutex> stats_lock(
                        _statsMutex);
                    ++_stats.requestsRejected;
                }
                Json reply = Json::object();
                reply.set("type", "rejected");
                reply.set("retry_after_ms",
                          _config.retryAfterSeconds * 1000.0);
                writeFrame(fd, reply);
                return;
            }
            job = std::make_shared<Job>();
            job->id = _nextJobId++;
            job->request = request;
            job->subscribers = 1;
            job->clientRejects = request.rejects;
            job->enqueuedAt = std::chrono::steady_clock::now();
            enqueueJobLocked(job);
        }
        queue_depth = queuedJobCountLocked();
    }
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        if (coalesced)
            ++_stats.requestsCoalesced;
        else
            ++_stats.jobsAccepted;
    }
    logLine("%s job %llu: %s%s", coalesced ? "joined" : "queued",
            static_cast<unsigned long long>(job->id),
            request.slug.c_str(), request.quick ? " (quick)" : "");

    Json accepted = Json::object();
    accepted.set("type", "accepted");
    accepted.set("job", job->id);
    accepted.set("coalesced", Json(coalesced));
    accepted.set("queue_depth", queue_depth);
    if (!writeFrame(fd, accepted).ok())
        return;

    // Stream progress until the job reaches a terminal state. The
    // socket write happens OUTSIDE job->mutex so a slow client can
    // never stall onCellFinished (which runs on worker threads).
    std::size_t last_cells = 0;
    std::unique_lock<std::mutex> lock(job->mutex);
    for (;;) {
        job->cv.wait(lock, [&] {
            return job->state == JobState::Done ||
                   job->state == JobState::Drained ||
                   job->cellsDone != last_cells;
        });
        if (job->state == JobState::Done ||
            job->state == JobState::Drained)
            break;
        last_cells = job->cellsDone;
        lock.unlock();
        Json progress = Json::object();
        progress.set("type", "progress");
        progress.set("job", job->id);
        progress.set("cells", last_cells);
        if (!writeFrame(fd, progress).ok())
            return; // client went away; the job runs on
        lock.lock();
    }
    const JobState state = job->state;
    const ExperimentRunResult result = job->result;
    lock.unlock();

    if (state == JobState::Drained) {
        writeFrame(fd, drainedFrame());
        return;
    }
    if (result.exitCode == 1 || !result.artifact) {
        writeFrame(fd, errorFrame(result.error.empty()
                                      ? "experiment failed"
                                      : result.error));
        return;
    }
    Json reply = Json::object();
    reply.set("type", "artifact");
    reply.set("exit_code", result.exitCode);
    reply.set("restored_cells", result.restoredCells);
    reply.set("seconds", result.seconds);
    reply.set("artifact", result.artifact->toJson());
    writeFrame(fd, reply);
}

void
SweepServer::runnerLoop(unsigned lane_index)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(_queueMutex);
            _queueCv.wait(lock, [&] {
                return _draining || !_queue.empty();
            });
            if (_draining)
                break;
            // Highest priority first, then oldest job, then shard
            // order - so every lane converges on the same fan-out
            // instead of interleaving unrelated jobs.
            const auto better = [](const Task &a, const Task &b) {
                if (a.job->request.priority !=
                    b.job->request.priority)
                    return a.job->request.priority >
                           b.job->request.priority;
                if (a.job->id != b.job->id)
                    return a.job->id < b.job->id;
                return a.shardIndex < b.shardIndex;
            };
            auto best = _queue.begin();
            for (auto it = std::next(best); it != _queue.end();
                 ++it) {
                if (better(*it, *best))
                    best = it;
            }
            task = *best;
            _queue.erase(best);
            _runningJobs[lane_index] = task.job;
        }
        switch (task.kind) {
        case TaskKind::Whole:
            runJob(task.job, lane_index);
            break;
        case TaskKind::Shard:
            runShardTask(task, lane_index);
            break;
        case TaskKind::Merge:
            runMergeTask(task.job, lane_index);
            break;
        }
        {
            std::lock_guard<std::mutex> lock(_queueMutex);
            _runningJobs[lane_index].reset();
        }
    }
}

void
SweepServer::runJob(const std::shared_ptr<Job> &job,
                    unsigned lane_index)
{
    markJobStarted(job);
    logLine("running job %llu: %s%s",
            static_cast<unsigned long long>(job->id),
            job->request.slug.c_str(),
            _supervisor ? " (lane)" : "");

    ExperimentRunResult result;
    bool lane_drained = false;
    if (_supervisor) {
        // Supervised path: the lane process runs the experiment and
        // streams progress + the artifact back; the monitor loop
        // below us handles crashes, deadlines and retries. Progress
        // counts restart per lane incarnation, so only move forward.
        // Cell claims are on whenever a store is armed: two lanes
        // running overlapping whole jobs then compute each shared
        // cell exactly once (the laggard defers and is served).
        LaneShard whole;
        whole.cellClaims = ResultStore::global() != nullptr;
        const LaneJobOutcome outcome = _supervisor->runJob(
            lane_index, job->request, checkpointPathFor(job->request),
            [job](std::size_t cells) {
                std::lock_guard<std::mutex> lock(job->mutex);
                if (cells > job->cellsDone) {
                    job->cellsDone = cells;
                    job->cv.notify_all();
                }
            },
            whole);
        result = outcome.result;
        lane_drained = outcome.drained;
    } else {
        ExperimentOptions options;
        options.quick = job->request.quick;
        options.config = job->request.config;
        options.echo = false;
        options.checkpointPath = checkpointPathFor(job->request);
        options.abort = &_drainFlag;
        options.onCellFinished = [job] {
            std::lock_guard<std::mutex> lock(job->mutex);
            ++job->cellsDone;
            job->cv.notify_all();
        };

        const ExperimentDef *def = findExperiment(job->request.slug);
        if (def == nullptr) {
            result.exitCode = 1;
            result.error =
                "experiment '" + job->request.slug + "' vanished";
        } else {
            result = runExperimentInProcess(*def, options);
        }
    }

    bool drained = false;
    bool warm = false;
    {
        // One critical section decides the terminal state, reads the
        // final subscriber counts, and stamps the serve telemetry:
        // a late coalescing attach either lands before this (and is
        // counted) or observes a terminal state (and starts a fresh
        // job). The drain flag is read here too, so persistPending
        // (which inspects state under this mutex) and this section
        // agree on whether the job drained.
        std::lock_guard<std::mutex> lock(job->mutex);
        drained = lane_drained ||
                  _drainFlag.load(std::memory_order_acquire);
        if (!drained && result.artifact) {
            const RunMetrics &metrics = result.artifact->metrics;
            ServeMetrics serve;
            serve.requests = job->subscribers;
            serve.coalesced = job->coalesced;
            serve.admissionRejects = job->clientRejects;
            serve.queueSeconds = job->queueSeconds;
            serve.jobSeconds = secondsSince(job->startedAt);
            serve.warm = metrics.hasTraceSource() &&
                         metrics.tracesGenerated() == 0 &&
                         metrics.traceCacheHits() > 0;
            warm = serve.warm;
            result.artifact->metrics.recordServe(serve);
        }
        job->result = result;
        job->state =
            drained ? JobState::Drained : JobState::Done;
        job->cv.notify_all();
    }

    if (!drained && result.exitCode == 0) {
        // A clean completion retires the job's journal; a drained or
        // partial run keeps it so a restart resumes from it.
        std::error_code ec;
        std::filesystem::remove(checkpointPathFor(job->request), ec);
    }
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        if (drained) {
            ++_stats.jobsDrained;
        } else {
            ++_stats.jobsCompleted;
            if (warm)
                ++_stats.warmHits;
        }
    }
    logLine("job %llu %s (%zu cells%s)",
            static_cast<unsigned long long>(job->id),
            drained ? "drained" : "finished", job->cellsDone,
            warm ? ", warm" : "");
}

void
SweepServer::markJobStarted(const std::shared_ptr<Job> &job)
{
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state != JobState::Queued)
        return;
    job->state = JobState::Running;
    job->startedAt = std::chrono::steady_clock::now();
    job->queueSeconds = std::chrono::duration<double>(
                            job->startedAt - job->enqueuedAt)
                            .count();
}

std::size_t
SweepServer::queuedJobCountLocked() const
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < _queue.size(); ++i) {
        bool seen = false;
        for (std::size_t j = 0; j < i && !seen; ++j)
            seen = _queue[j].job == _queue[i].job;
        if (!seen)
            ++count;
    }
    return count;
}

void
SweepServer::enqueueJobLocked(const std::shared_ptr<Job> &job)
{
    // Shard when the grid can be reassembled from the store: a
    // supervised pool of at least two lanes, a shardable experiment
    // (every cell store-keyed) and an armed result store. Everything
    // else runs as one whole job on one lane, exactly as before.
    // A job with armed faults disarms the store inside SuiteRunner,
    // so a sharded fan-out would just repeat the whole grid per lane
    // - don't plan one.
    const ExperimentDef *def = findExperiment(job->request.slug);
    const bool shard = _supervisor != nullptr && _config.shardJobs &&
                       _config.lanes >= 2 && def != nullptr &&
                       def->shardable &&
                       ResultStore::global() != nullptr &&
                       !job->request.config.faults.armed();
    if (!shard) {
        Task task;
        task.job = job;
        _queue.push_back(task);
        _queueCv.notify_one();
        return;
    }
    job->shardCount = _config.lanes;
    job->shardCells.assign(job->shardCount, 0);
    job->shardDispatches.assign(job->shardCount, 0);
    for (unsigned k = 0; k < job->shardCount; ++k) {
        Task task;
        task.job = job;
        task.kind = TaskKind::Shard;
        task.shardIndex = k;
        _queue.push_back(task);
    }
    {
        std::lock_guard<std::mutex> stats_lock(_statsMutex);
        ++_stats.jobsSharded;
        _stats.shardsPlanned += job->shardCount;
    }
    _queueCv.notify_all();
}

void
SweepServer::runShardTask(const Task &task, unsigned lane_index)
{
    const std::shared_ptr<Job> &job = task.job;
    const unsigned shard_index = task.shardIndex;
    markJobStarted(job);
    unsigned shard_count = 0;
    unsigned dispatch = 0;
    {
        std::lock_guard<std::mutex> lock(job->mutex);
        shard_count = job->shardCount;
        dispatch = ++job->shardDispatches[shard_index];
    }
    logLine("running job %llu shard %u/%u: %s%s",
            static_cast<unsigned long long>(job->id), shard_index,
            shard_count, job->request.slug.c_str(),
            job->request.quick ? " (quick)" : "");

    LaneShard shard;
    shard.index = shard_index;
    shard.count = shard_count;
    shard.steal = true;
    shard.cellClaims = true;
    const LaneJobOutcome outcome = _supervisor->runJob(
        lane_index, job->request,
        shardCheckpointPathFor(job->request, shard_index,
                               shard_count),
        [job, shard_index](std::size_t cells) {
            // Aggregated progress: the sum of per-shard monotonic
            // maxima, so lane restarts (whose counts reset) and
            // out-of-order shard ticks never move the stream
            // backwards.
            std::lock_guard<std::mutex> lock(job->mutex);
            if (cells <= job->shardCells[shard_index])
                return;
            job->shardCells[shard_index] = cells;
            std::size_t sum = 0;
            for (const std::size_t done : job->shardCells)
                sum += done;
            if (sum > job->cellsDone) {
                job->cellsDone = sum;
                job->cv.notify_all();
            }
        },
        shard);

    const bool drained =
        outcome.drained || _drainFlag.load(std::memory_order_acquire);
    bool requeue = false;
    bool enqueue_merge = false;
    {
        std::lock_guard<std::mutex> lock(job->mutex);
        if (outcome.result.artifact) {
            job->shardTracesGenerated +=
                outcome.result.artifact->metrics.tracesGenerated();
        }
        if (drained) {
            job->shardDrained = true;
            ++job->shardsTerminal;
        } else if (outcome.result.exitCode == 1) {
            // The lane pool gave up on this shard (bounded crash
            // retries exhausted, or a hard failure). Re-dispatch it
            // within budget - its journal already holds whatever
            // finished, so only the remaining cells rerun - else
            // abandon it and let the merge pass sweep its cells.
            if (job->shardDispatches[shard_index] <=
                _config.shardRequeueBudget) {
                requeue = true;
                ++job->shardServe.requeued;
            } else {
                ++job->shardServe.abandoned;
                ++job->shardsTerminal;
            }
        } else {
            ++job->shardsTerminal;
            if (outcome.result.artifact) {
                const ResultStoreStats cells =
                    outcome.result.artifact->metrics.resultStore();
                job->shardServe.stolenCells += cells.stolen;
                job->shardServe.overlapCoalesced += cells.claimServed;
            }
        }
        if (!drained && !requeue &&
            job->shardsTerminal == job->shardCount) {
            enqueue_merge = true;
            job->shardServe.fanoutSeconds =
                secondsSince(job->startedAt);
        }
    }
    if (requeue || outcome.result.exitCode == 1) {
        std::lock_guard<std::mutex> stats_lock(_statsMutex);
        if (requeue)
            ++_stats.shardsRequeued;
        else if (!drained)
            ++_stats.shardsAbandoned;
    }
    if (!requeue && !enqueue_merge && !drained) {
        logLine("job %llu shard %u/%u done",
                static_cast<unsigned long long>(job->id), shard_index,
                shard_count);
    }

    const auto markDrained = [&] {
        bool counted = false;
        {
            std::lock_guard<std::mutex> lock(job->mutex);
            if (job->state != JobState::Drained) {
                job->state = JobState::Drained;
                job->cv.notify_all();
                counted = true;
            }
        }
        if (counted) {
            std::lock_guard<std::mutex> stats_lock(_statsMutex);
            ++_stats.jobsDrained;
        }
    };
    if (drained) {
        markDrained();
        return;
    }
    if (requeue || enqueue_merge) {
        Task next;
        next.job = job;
        next.kind = requeue ? TaskKind::Shard : TaskKind::Merge;
        next.shardIndex = requeue ? shard_index : 0;
        bool queued = false;
        {
            std::lock_guard<std::mutex> lock(_queueMutex);
            if (!_draining) {
                _queue.push_back(next);
                _queueCv.notify_one();
                queued = true;
            }
        }
        if (!queued) {
            // Drain won the race for the queue: the job was already
            // persisted (this lane still holds its running slot), so
            // it resumes after restart instead of running on.
            markDrained();
            return;
        }
        if (requeue) {
            logLine("re-queued job %llu shard %u/%u (dispatch %u)",
                    static_cast<unsigned long long>(job->id),
                    shard_index, shard_count, dispatch);
        }
    }
}

void
SweepServer::runMergeTask(const std::shared_ptr<Job> &job,
                          unsigned lane_index)
{
    logLine("merging job %llu: %s",
            static_cast<unsigned long long>(job->id),
            job->request.slug.c_str());
    // The merge IS the job, run unsharded on one lane against the
    // store the fan-out just warmed: every cell the shards finished
    // is served bit-identically from the store, and any straggler
    // cells of drained, abandoned or failed shards are simulated
    // here - shard failures degrade to slowness, never to a wrong
    // or partial artifact. Claims stay on so a concurrent
    // overlapping job still shares cells with the merge.
    LaneShard merge;
    merge.cellClaims = true;
    const LaneJobOutcome outcome = _supervisor->runJob(
        lane_index, job->request, checkpointPathFor(job->request),
        [job](std::size_t cells) {
            std::lock_guard<std::mutex> lock(job->mutex);
            if (cells > job->cellsDone) {
                job->cellsDone = cells;
                job->cv.notify_all();
            }
        },
        merge);
    ExperimentRunResult result = outcome.result;

    bool drained = false;
    bool counted_drained = false;
    bool warm = false;
    std::uint64_t stolen = 0;
    std::uint64_t overlap = 0;
    {
        std::lock_guard<std::mutex> lock(job->mutex);
        drained = outcome.drained ||
                  _drainFlag.load(std::memory_order_acquire);
        if (!drained && result.artifact) {
            ServeMetrics serve;
            serve.requests = job->subscribers;
            serve.coalesced = job->coalesced;
            serve.admissionRejects = job->clientRejects;
            serve.queueSeconds = job->queueSeconds;
            serve.jobSeconds = secondsSince(job->startedAt);
            // The merge pass itself only reads traces the shards
            // left in the cache; the job generated whatever they
            // generated.
            const RunMetrics &metrics = result.artifact->metrics;
            serve.warm = metrics.hasTraceSource() &&
                         metrics.tracesGenerated() == 0 &&
                         job->shardTracesGenerated == 0 &&
                         metrics.traceCacheHits() > 0;
            warm = serve.warm;
            job->shardServe.planned = job->shardCount;
            job->shardServe.mergeSeconds = result.seconds;
            job->shardServe.laneCells.assign(job->shardCells.begin(),
                                             job->shardCells.end());
            serve.shard = job->shardServe;
            stolen = job->shardServe.stolenCells;
            overlap = job->shardServe.overlapCoalesced;
            result.artifact->metrics.recordServe(serve);
        }
        job->result = result;
        if (job->state != JobState::Drained) {
            job->state =
                drained ? JobState::Drained : JobState::Done;
            counted_drained = drained;
        }
        job->cv.notify_all();
    }

    if (!drained && result.exitCode == 0) {
        std::error_code ec;
        std::filesystem::remove(checkpointPathFor(job->request), ec);
        removeShardCheckpoints(job->request);
    }
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        if (drained) {
            if (counted_drained)
                ++_stats.jobsDrained;
        } else {
            ++_stats.jobsCompleted;
            if (warm)
                ++_stats.warmHits;
            _stats.shardCellsStolen += stolen;
            _stats.overlapCellsCoalesced += overlap;
        }
    }
    logLine("job %llu %s (%zu cells, sharded x%u)",
            static_cast<unsigned long long>(job->id),
            drained ? "drained" : "finished", job->cellsDone,
            job->shardCount);
}

void
SweepServer::requestDrain()
{
    if (_drainFlag.exchange(true, std::memory_order_acq_rel))
        return;
    logLine("drain requested");
    std::size_t drained_queued = 0;
    {
        std::lock_guard<std::mutex> lock(_queueMutex);
        _draining = true;
        persistPendingLocked();
        // Mark every job still holding queue tasks drained, once per
        // job: a sharded job contributes several tasks, and one with
        // a shard mid-flight on a lane is marked here too - the lane
        // reports that shard drained shortly, and the runner's own
        // terminal path sees the state already set.
        for (std::size_t i = 0; i < _queue.size(); ++i) {
            bool seen = false;
            for (std::size_t j = 0; j < i && !seen; ++j)
                seen = _queue[j].job == _queue[i].job;
            if (seen)
                continue;
            const auto &job = _queue[i].job;
            std::lock_guard<std::mutex> job_lock(job->mutex);
            if (job->state == JobState::Drained)
                continue;
            job->state = JobState::Drained;
            job->cv.notify_all();
            ++drained_queued;
        }
        _queue.clear();
    }
    if (drained_queued > 0) {
        std::lock_guard<std::mutex> lock(_statsMutex);
        _stats.jobsDrained += drained_queued;
    }
    // Lanes stop at their next cell boundary and report their jobs
    // drained; their runner threads then observe _draining and exit.
    if (_supervisor)
        _supervisor->requestDrain();
    _queueCv.notify_all();
    if (_drainPipe[1] >= 0) {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(_drainPipe[1], &byte, 1);
    }
    // Unblock connection threads parked in readFrame. Only the read
    // side: subscribers of the aborting run still need their
    // "drained" frame written.
    {
        std::lock_guard<std::mutex> lock(_connMutex);
        for (const auto &conn : _connections) {
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RD);
        }
    }
}

void
SweepServer::waitStopped()
{
    if (!_started.load())
        return;
    if (_acceptThread.joinable())
        _acceptThread.join();
    for (std::thread &runner : _runnerThreads) {
        if (runner.joinable())
            runner.join();
    }
    _runnerThreads.clear();
    // Every job result has been consumed by now; the lanes are idle
    // and EOF on their sockets is their exit signal.
    if (_supervisor)
        _supervisor->shutdown();
    // Connection threads exit once the runner has pushed every job
    // to a terminal state. Copy the list out: their epilogues take
    // _connMutex to close their fd.
    for (;;) {
        std::vector<std::shared_ptr<Connection>> remaining;
        {
            std::lock_guard<std::mutex> lock(_connMutex);
            remaining.assign(_connections.begin(),
                             _connections.end());
            _connections.clear();
        }
        if (remaining.empty())
            break;
        for (const auto &conn : remaining) {
            if (conn->thread.joinable())
                conn->thread.join();
        }
    }
    if (_listenFd >= 0) {
        ::close(_listenFd);
        _listenFd = -1;
    }
    for (int &fd : _drainPipe) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ::unlink(_socketPath.c_str());
    _stopped.store(true);
    logLine("stopped");
}

ServerStats
SweepServer::stats() const
{
    ServerStats out;
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        out = _stats;
    }
    if (_supervisor) {
        const LaneStats lanes = _supervisor->stats();
        out.lanesForked = lanes.lanesForked;
        out.laneCrashes = lanes.laneCrashes;
        out.laneKills = lanes.laneKills;
        out.jobsRetried = lanes.jobsRetried;
    }
    return out;
}

std::vector<LaneView>
SweepServer::laneViews() const
{
    if (!_supervisor)
        return {};
    return _supervisor->laneViews();
}

std::string
SweepServer::checkpointPathFor(const RunRequest &request) const
{
    return _config.stateDir + "/" + request.journalStem() + ".ckpt";
}

std::string
SweepServer::shardCheckpointPathFor(const RunRequest &request,
                                    unsigned shard_index,
                                    unsigned shard_count) const
{
    // The shard count is part of the name: a restart that re-plans
    // against a different lane count starts fresh journals, and the
    // cells the old plan finished are still served by the store.
    return _config.stateDir + "/" + request.journalStem() + ".shard" +
           std::to_string(shard_index) + "of" +
           std::to_string(shard_count) + ".ckpt";
}

void
SweepServer::removeShardCheckpoints(const RunRequest &request) const
{
    const std::string prefix = request.journalStem() + ".shard";
    std::error_code ec;
    std::filesystem::directory_iterator it(_config.stateDir, ec);
    if (ec)
        return;
    for (const auto &entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) == 0 &&
            name.size() > prefix.size() + 5 &&
            name.compare(name.size() - 5, 5, ".ckpt") == 0) {
            std::error_code remove_ec;
            std::filesystem::remove(entry.path(), remove_ec);
        }
    }
}

void
SweepServer::persistPendingLocked()
{
    const std::string path = _config.stateDir + "/pending.json";
    Json jobs = Json::array();
    // ONE entry per job, however many shard/merge tasks it has in
    // flight: the entry is just the request, and the restarted
    // daemon re-plans shards against its then-current lane count.
    // The union of the job's unfinished cells needs no persisting -
    // finished cells live in the result store (and the journals),
    // so the re-planned run serves them and simulates only the rest.
    std::vector<const Job *> seen;
    auto persist = [&](const std::shared_ptr<Job> &job) {
        if (!job)
            return;
        for (const Job *prior : seen) {
            if (prior == job.get())
                return;
        }
        std::lock_guard<std::mutex> job_lock(job->mutex);
        if (job->state == JobState::Done ||
            job->state == JobState::Drained)
            return;
        seen.push_back(job.get());
        jobs.push(job->request.toJson());
    };
    for (const auto &job : _runningJobs)
        persist(job);
    for (const auto &task : _queue)
        persist(task.job);
    if (jobs.size() == 0) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        return;
    }
    const std::size_t count = jobs.size();
    Json pending = Json::object();
    pending.set("version", 1);
    pending.set("jobs", std::move(jobs));
    const auto written = writeFileAtomic(path, pending.dump(2));
    if (written.ok()) {
        logLine("persisted %zu pending request(s) to %s", count,
                path.c_str());
    } else {
        logLine("WARNING: cannot persist pending requests: %s",
                written.error().describe().c_str());
    }
}

void
SweepServer::restorePending()
{
    const std::string path = _config.stateDir + "/pending.json";
    std::ifstream in(path);
    if (!in)
        return;
    std::ostringstream text;
    text << in.rdbuf();
    in.close();

    // Validate BEFORE touching the file: a corrupt or truncated
    // pending.json (daemon died mid-write of a non-atomic editor
    // save, disk full, ...) is quarantined aside for forensics, and
    // startup proceeds - a bad state file must never brick the
    // daemon or be silently destroyed.
    const auto quarantine = [&](const std::string &why) {
        const std::string aside = path + ".corrupt";
        std::error_code rename_ec;
        std::filesystem::rename(path, aside, rename_ec);
        if (rename_ec) {
            std::error_code remove_ec;
            std::filesystem::remove(path, remove_ec);
            logLine("WARNING: dropping malformed %s (%s); "
                    "quarantine failed: %s",
                    path.c_str(), why.c_str(),
                    rename_ec.message().c_str());
        } else {
            logLine("WARNING: quarantined malformed %s to %s (%s)",
                    path.c_str(), aside.c_str(), why.c_str());
        }
    };

    Json pending;
    try {
        pending = Json::parse(text.str());
    } catch (const std::exception &error) {
        quarantine(error.what());
        return;
    }
    if (!pending.contains("jobs") || !pending.at("jobs").isArray()) {
        quarantine("no jobs array");
        return;
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
    const Json &jobs = pending.at("jobs");
    std::size_t restored = 0;
    std::lock_guard<std::mutex> lock(_queueMutex);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        auto request = RunRequest::fromJson(jobs.at(i));
        if (!request.ok()) {
            logLine("WARNING: dropping pending request: %s",
                    request.error().describe().c_str());
            continue;
        }
        if (findExperiment(request.value().slug) == nullptr) {
            logLine("WARNING: dropping pending request for unknown "
                    "experiment '%s'",
                    request.value().slug.c_str());
            continue;
        }
        auto job = std::make_shared<Job>();
        job->id = _nextJobId++;
        job->request = request.value();
        job->subscribers = 0; // original clients are long gone
        job->enqueuedAt = std::chrono::steady_clock::now();
        // Re-plans the shard fan-out against the CURRENT lane
        // count; a drain under the old plan left its cells in the
        // store, so only unfinished work reruns.
        enqueueJobLocked(job);
        ++restored;
    }
    if (restored > 0) {
        std::lock_guard<std::mutex> stats_lock(_statsMutex);
        _stats.jobsRestored += restored;
        logLine("restored %zu pending request(s); resuming from "
                "their journals",
                restored);
    }
}

void
SweepServer::logLine(const char *format, ...) const
{
    if (!_config.echo)
        return;
    std::fputs("[ibpd] ", stdout);
    va_list args;
    va_start(args, format);
    std::vfprintf(stdout, format, args);
    va_end(args);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

} // namespace ibp
