#include "common_flags.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "serve/protocol.hh"
#include "sim/result_store.hh"
#include "trace/trace_cache.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

double
parsePositiveNumber(const std::string_view arg,
                    const std::string_view value)
{
    char *end = nullptr;
    const std::string text(value);
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(parsed >= 0.0) ||
        !std::isfinite(parsed))
        fatal("invalid value in '%.*s'",
              static_cast<int>(arg.size()), arg.data());
    return parsed;
}

void
printUsage(const char *program)
{
    std::printf(
        "usage: %s [--quick] [--csv=DIR] [--json=DIR]\n"
        "          [--checkpoint=PATH] [--retries=N]\n"
        "          [--cell-deadline=SECONDS]\n"
        "          [--trace-cache[=DIR]] [--result-store[=DIR]]\n"
        "          [--daemon[=SOCKET]]\n"
        "          [--daemon-timeout=SECONDS]\n"
        "\n"
        "--trace-cache reuses generated traces across runs from "
        "DIR\n(default %s; also via IBP_TRACE_CACHE).\n"
        "--result-store reuses per-cell simulation results across\n"
        "runs from DIR (default %s; also via IBP_RESULT_STORE).\n"
        "--daemon routes the run through a resident ibpd daemon\n"
        "(socket from SOCKET, else $IBP_DAEMON, else %s), falling\n"
        "back to in-process execution when no daemon answers; see\n"
        "docs/SERVICE.md.\n"
        "--daemon-timeout bounds how long the client waits for each\n"
        "reply frame (default $IBP_DAEMON_TIMEOUT, else 300; 0 =\n"
        "forever): a hung daemon becomes a retry-then-fallback\n"
        "instead of a hung bench.\n",
        program, TraceCache::kDefaultDirectory,
        ResultStore::kDefaultDirectory, kDefaultDaemonSocket);
}

} // namespace

BenchCli
parseBenchFlags(int argc, char **argv)
{
    BenchCli cli;
    // The run's config is the environment's as --quick reads it; the
    // retry flags below override it.
    for (int i = 1; i < argc; ++i)
        cli.options.quick |= std::string_view(argv[i]) == "--quick";
    RunConfig &config = cli.options.config.emplace(
        RunConfig::fromEnvironment(cli.options.quick));
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--quick") {
            cli.options.quick = true;
        } else if (arg.rfind("--csv=", 0) == 0) {
            cli.options.csvDir = std::string(arg.substr(6));
            if (cli.options.csvDir.empty())
                fatal("--csv requires a directory");
        } else if (arg.rfind("--json=", 0) == 0) {
            cli.options.jsonDir = std::string(arg.substr(7));
            if (cli.options.jsonDir.empty())
                fatal("--json requires a directory");
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            cli.options.checkpointPath =
                std::string(arg.substr(13));
            if (cli.options.checkpointPath.empty())
                fatal("--checkpoint requires a path");
        } else if (arg.rfind("--retries=", 0) == 0) {
            // Clamped to [1, 100], the range the wire accepts.
            config.retry.maxAttempts = static_cast<unsigned>(std::clamp(
                parsePositiveNumber(arg, arg.substr(10)), 1.0, 100.0));
        } else if (arg.rfind("--cell-deadline=", 0) == 0) {
            config.retry.cellDeadlineSeconds =
                parsePositiveNumber(arg, arg.substr(16));
        } else if (arg == "--trace-cache") {
            TraceCache::configureGlobal(
                TraceCache::kDefaultDirectory);
        } else if (arg.rfind("--trace-cache=", 0) == 0) {
            const std::string dir(arg.substr(14));
            if (dir.empty())
                fatal("--trace-cache requires a directory");
            TraceCache::configureGlobal(dir);
        } else if (arg == "--result-store") {
            ResultStore::configureGlobal(
                ResultStore::kDefaultDirectory);
        } else if (arg.rfind("--result-store=", 0) == 0) {
            const std::string dir(arg.substr(15));
            if (dir.empty())
                fatal("--result-store requires a directory");
            ResultStore::configureGlobal(dir);
        } else if (arg == "--daemon") {
            cli.useDaemon = true;
        } else if (arg.rfind("--daemon=", 0) == 0) {
            cli.useDaemon = true;
            cli.daemonSocket = std::string(arg.substr(9));
            if (cli.daemonSocket.empty())
                fatal("--daemon= requires a socket path");
        } else if (arg.rfind("--daemon-timeout=", 0) == 0) {
            cli.daemonTimeoutSeconds =
                parsePositiveNumber(arg, arg.substr(17));
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        } else {
            fatal("unknown option '%s'", argv[i]);
        }
    }
    return cli;
}

int
runBenchMain(const ExperimentDef &def, int argc, char **argv)
{
    const BenchCli cli = parseBenchFlags(argc, argv);
    if (cli.useDaemon) {
        ClientOptions client;
        client.socketPath = cli.daemonSocket;
        client.receiveTimeoutSeconds = cli.daemonTimeoutSeconds;
        return runExperimentViaDaemon(def, cli.options, client)
            .exitCode;
    }
    return runExperimentInProcess(def, cli.options).exitCode;
}

} // namespace ibp
