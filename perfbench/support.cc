#include <algorithm>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "perfbench.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"

extern char **environ;

namespace perfbench {

namespace fs = std::filesystem;

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const double h = q * (n + 1.0);
    if (h <= 1.0)
        return values.front();
    if (h >= n)
        return values.back();
    const auto i = static_cast<std::size_t>(std::floor(h));
    return values[i - 1] + (h - static_cast<double>(i)) *
                               (values[i] - values[i - 1]);
}

void
setThreads(unsigned threads)
{
    ::setenv("IBP_THREADS", std::to_string(threads).c_str(), 1);
}

void
emptyDirectory(const std::string &directory)
{
    std::error_code ec;
    fs::create_directories(directory, ec);
    for (const auto &entry : fs::directory_iterator(directory, ec))
        fs::remove_all(entry.path(), ec);
}

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<std::string>
tableDumps(const ibp::RunArtifact &artifact)
{
    std::vector<std::string> dumps;
    for (const auto &table : artifact.tables)
        dumps.push_back(ibp::tableToJson(table).dump());
    return dumps;
}

/** Why @p artifact does not match @p expected ("" when it does). */
std::string
mismatch(const Expected &expected, const ibp::RunArtifact &artifact)
{
    const auto dumps = tableDumps(artifact);
    if (dumps.size() != expected.tables.size()) {
        return "table count " + std::to_string(dumps.size()) +
               " != expected " +
               std::to_string(expected.tables.size());
    }
    for (std::size_t i = 0; i < dumps.size(); ++i) {
        if (dumps[i] != expected.tables[i])
            return "table " + std::to_string(i) +
                   " differs from the expected table";
    }
    if (artifact.metrics.cellCount() != expected.cells) {
        return "cell count " +
               std::to_string(artifact.metrics.cellCount()) +
               " != expected " + std::to_string(expected.cells);
    }
    if (artifact.metrics.failureCount() != 0) {
        return std::to_string(artifact.metrics.failureCount()) +
               " failed cells";
    }
    return "";
}

ibp::ExperimentOptions
quickOptions()
{
    ibp::ExperimentOptions options;
    options.quick = true;
    options.echo = false;
    return options;
}

JobResult
finish(const ibp::ExperimentDef &def, const Expected &expected,
       double seconds, const ibp::ExperimentRunResult &run)
{
    JobResult job;
    job.slug = def.slug;
    job.seconds = seconds;
    job.artifact = run.artifact;
    if (!run.artifact) {
        job.failure = "no artifact: " + run.error;
    } else if (run.exitCode != 0) {
        job.failure = "exit code " + std::to_string(run.exitCode);
    } else {
        job.failure = mismatch(expected, *run.artifact);
    }
    return job;
}

} // namespace

std::map<std::string, Expected>
loadExpected(const std::string &directory)
{
    std::map<std::string, Expected> out;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(directory, ec)) {
        if (entry.path().extension() != ".json")
            continue;
        const ibp::Json json =
            ibp::Json::parse(readFile(entry.path().string()));
        Expected expected;
        expected.slug = json.at("slug").asString();
        expected.cells = json.at("cells").asUint();
        expected.branches = json.at("branches").asUint();
        const ibp::Json &tables = json.at("tables");
        for (std::size_t i = 0; i < tables.size(); ++i)
            expected.tables.push_back(tables.at(i).dump());
        out[expected.slug] = std::move(expected);
    }
    if (ec)
        throw std::runtime_error("cannot list " + directory);
    return out;
}

void
writeExpected(const std::string &directory,
              const ibp::RunArtifact &artifact)
{
    ibp::Json json = ibp::Json::object();
    json.set("slug", artifact.manifest.slug);
    json.set("cells",
             static_cast<std::uint64_t>(artifact.metrics.cellCount()));
    json.set("branches", artifact.metrics.totalBranches());
    ibp::Json tables = ibp::Json::array();
    for (const auto &table : artifact.tables)
        tables.push(ibp::tableToJson(table));
    json.set("tables", std::move(tables));
    fs::create_directories(directory);
    std::ofstream out(directory + "/" + artifact.manifest.slug +
                      ".json");
    out << json.dump(1) << "\n";
    if (!out)
        throw std::runtime_error("cannot write expected tables");
}

JobResult
runInProcess(const ibp::ExperimentDef &def, const Expected &expected)
{
    const auto start = Clock::now();
    const ibp::ExperimentRunResult run =
        ibp::runExperimentInProcess(def, quickOptions());
    return finish(def, expected, secondsSince(start), run);
}

JobResult
runServed(const ibp::ExperimentDef &def, const Expected &expected,
          const std::string &socket)
{
    ibp::ClientOptions client;
    client.socketPath = socket;
    ibp::ServedOutcome outcome;
    const auto start = Clock::now();
    const ibp::ExperimentRunResult run = ibp::runExperimentViaDaemon(
        def, quickOptions(), client, &outcome);
    JobResult job = finish(def, expected, secondsSince(start), run);
    if (!outcome.served) {
        job.fellBack = true;
        job.failure = "fell back in process: " + outcome.fallbackReason;
    } else if (job.failure.empty() &&
               !job.artifact->metrics.hasServe()) {
        job.failure = "served artifact has no metrics.serve block";
    }
    return job;
}

namespace {

/** Child pids of @p parent, found by scanning /proc. */
std::vector<pid_t>
childrenOf(pid_t parent)
{
    std::vector<pid_t> children;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator("/proc", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.empty() || !std::isdigit(
                                static_cast<unsigned char>(name[0])))
            continue;
        std::ifstream stat(entry.path() / "stat");
        std::string line;
        if (!std::getline(stat, line))
            continue;
        // Fields after the parenthesised command: state, ppid, ...
        const auto close = line.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(line.substr(close + 1));
        char state = 0;
        long ppid = 0;
        rest >> state >> ppid;
        if (ppid == parent)
            children.push_back(static_cast<pid_t>(std::stol(name)));
    }
    return children;
}

double
peakRssMbOf(const std::string &proc)
{
    std::ifstream status(proc + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

void
resetPeakRssOf(const std::string &proc)
{
    // "5" resets the peak-RSS mark (proc(5), clear_refs).
    std::ofstream clear(proc + "/clear_refs");
    clear << "5";
}

bool
pingDaemon(const std::string &socket)
{
    const auto fd = ibp::connectDaemon(socket);
    if (!fd.ok())
        return false;
    ibp::Json ping = ibp::Json::object();
    ping.set("type", "ping");
    bool ok = ibp::writeFrame(fd.value(), ping).ok();
    if (ok) {
        const auto reply = ibp::readFrame(fd.value(), 5.0);
        ok = reply.ok() &&
             reply.value().stringOr("type", "") == "pong";
    }
    ::close(fd.value());
    return ok;
}

} // namespace

double
selfPeakRssMb()
{
    const double mb = peakRssMbOf("/proc/self");
    if (mb > 0.0)
        return mb;
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
resetSelfPeakRss()
{
    resetPeakRssOf("/proc/self");
}

Daemon::~Daemon() { stop(); }

void
Daemon::start(const std::string &binary, const std::string &directory,
              const std::string &traceCache)
{
    fs::create_directories(directory);
    _socket = directory + "/ibpd.sock";
    _store = directory + "/state/result-store";
    fs::create_directories(_store);

    std::vector<std::string> args = {
        binary, "--socket=" + _socket, "--state=" + directory + "/state",
        "--lanes=" + std::to_string(kServedLanes), "--quiet"};
    // The daemon runs the client's configuration: same trace scale
    // (IBP_EVENTS, inherited) and IBP_THREADS=1 per lane, which the
    // client sets for itself before every submission.
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        if (entry.rfind("IBP_THREADS=", 0) != 0 &&
            entry.rfind("IBP_TRACE_CACHE=", 0) != 0)
            env.push_back(entry);
    }
    env.push_back("IBP_THREADS=1");
    env.push_back("IBP_TRACE_CACHE=" + traceCache);

    std::vector<char *> argv, envp;
    for (auto &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    for (auto &entry : env)
        envp.push_back(entry.data());
    envp.push_back(nullptr);

    const std::string log = directory + "/ibpd.log";
    const int log_fd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (log_fd < 0)
        throw std::runtime_error("cannot open " + log);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
        // Only async-signal-safe calls until execve. The daemon gets
        // SIGTERM (and drains) if the benchmark dies without
        // stopping it.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        ::execve(binary.c_str(), argv.data(), envp.data());
        ::_exit(127);
    }
    ::close(log_fd);
    if (pid < 0)
        throw std::runtime_error("cannot fork " + binary);
    _pid = pid;

    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
        int status = 0;
        if (::waitpid(_pid, &status, WNOHANG) == _pid) {
            _pid = -1;
            throw std::runtime_error("ibpd exited during start-up; "
                                     "see " + log);
        }
        if (pingDaemon(_socket))
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop();
    throw std::runtime_error("ibpd did not answer within 30 s");
}

void
Daemon::stop()
{
    if (_pid <= 0)
        return;
    // Lanes die with the daemon (PDEATHSIG); wait for them too.
    const std::vector<pid_t> lanes = childrenOf(_pid);
    ::kill(_pid, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(_pid, &status, WNOHANG) == 0) {
        if (Clock::now() >= deadline) {
            ::kill(_pid, SIGKILL);
            ::waitpid(_pid, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    _pid = -1;
    for (const pid_t lane : lanes) {
        const std::string proc = "/proc/" + std::to_string(lane);
        const auto lane_deadline =
            Clock::now() + std::chrono::seconds(5);
        while (fs::exists(proc) && Clock::now() < lane_deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (fs::exists(proc))
            ::kill(lane, SIGKILL);
    }
}

void
Daemon::resetPeakRss() const
{
    resetPeakRssOf("/proc/" + std::to_string(_pid));
    for (const pid_t lane : childrenOf(_pid))
        resetPeakRssOf("/proc/" + std::to_string(lane));
}

double
Daemon::peakRssMb() const
{
    double total = peakRssMbOf("/proc/" + std::to_string(_pid));
    for (const pid_t lane : childrenOf(_pid))
        total += peakRssMbOf("/proc/" + std::to_string(lane));
    return total;
}

} // namespace perfbench
