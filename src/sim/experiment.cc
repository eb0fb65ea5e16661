#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <new>

#include "robust/fault_injection.hh"
#include "synth/benchmark_suite.hh"
#include "util/logging.hh"

namespace ibp {

namespace {

// Output directories are created up front so a long sweep cannot
// fail at the very end on a missing --csv/--json path.
void
ensureDirectory(const std::string &dir, const char *what)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw RunException(RunError::permanent(
            std::string(what) + ": cannot create directory '" + dir +
            "': " + ec.message()));
    }
}

/** The process-wide experiment registry. Guarded for the daemon,
 *  whose connection threads look experiments up concurrently;
 *  registration itself happens at startup. std::map nodes are
 *  pointer-stable, so handed-out ExperimentDef pointers survive
 *  later registrations. */
std::mutex &
registryMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::map<std::string, ExperimentDef> &
registrySlot()
{
    static std::map<std::string, ExperimentDef> defs;
    return defs;
}

} // namespace

const ExperimentDef &
registerExperiment(ExperimentDef def)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    auto &slot = registrySlot()[def.slug];
    slot = std::move(def);
    return slot;
}

const ExperimentDef *
findExperiment(const std::string &slug)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    const auto &defs = registrySlot();
    const auto it = defs.find(slug);
    return it == defs.end() ? nullptr : &it->second;
}

std::vector<std::string>
experimentSlugs()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> slugs;
    slugs.reserve(registrySlot().size());
    for (const auto &[slug, def] : registrySlot())
        slugs.push_back(slug);
    return slugs;
}

void
resetExperimentRegistryAfterFork()
{
    new (&registryMutex()) std::mutex();
}

ExperimentContext::ExperimentContext(std::string slug,
                                     std::string title,
                                     const ExperimentOptions &options)
    : _slug(std::move(slug)), _title(std::move(title)),
      _options(options), _config(options.runConfig())
{
    if (!_options.csvDir.empty())
        ensureDirectory(_options.csvDir, "csv output");
    if (!_options.jsonDir.empty())
        ensureDirectory(_options.jsonDir, "json output");

    if (!_options.checkpointPath.empty()) {
        // The meta binds the journal to this experiment
        // configuration, so a quick journal cannot resume a full
        // run.
        CheckpointMeta meta;
        meta.slug = _slug;
        meta.gitSha = buildManifest().gitSha;
        meta.eventScale = _config.eventScale;
        meta.quick = _options.quick;
        auto journal =
            CheckpointJournal::open(_options.checkpointPath, meta);
        if (!journal.ok()) {
            throw RunException(RunError::permanent(
                "checkpoint: " + journal.error().message));
        }
        _journal = std::move(journal).value();
        if (_journal->restoredCells() > 0 && _options.echo) {
            std::printf("(resuming: %zu cells restored from %s)\n\n",
                        _journal->restoredCells(),
                        _options.checkpointPath.c_str());
        }
    }

    _session.metrics = &_metrics;
    _session.checkpoint = _journal.get();
    _session.abort = _options.abort;
    _session.onCellFinished = _options.onCellFinished;
    _session.shardIndex = _options.shardIndex;
    _session.shardCount =
        std::max(1u, _options.shardCount);
    _session.shardSteal = _options.shardSteal;
    _session.cellClaims = _options.cellClaims;

    _metrics.recordThreads(simulationThreads());
}

std::size_t
ExperimentContext::restoredCells() const
{
    return _journal ? _journal->restoredCells() : 0;
}

void
ExperimentContext::emit(const ResultTable &table)
{
    if (_options.echo)
        table.print();
    if (!_options.csvDir.empty()) {
        const std::string path = _options.csvDir + "/" + _slug + "_" +
                                 std::to_string(_tableIndex) + ".csv";
        table.writeCsv(path);
        if (_options.echo)
            std::printf("(csv written to %s)\n\n", path.c_str());
    }
    _tables.push_back(table);
    ++_tableIndex;
}

void
ExperimentContext::note(const std::string &text)
{
    if (_options.echo) {
        std::printf("%s\n\n", text.c_str());
        std::fflush(stdout);
    }
    _notes.push_back(text);
}

RunArtifact
ExperimentContext::buildArtifact(double total_seconds) const
{
    RunArtifact artifact;
    artifact.manifest = buildManifest();
    artifact.manifest.slug = _slug;
    artifact.manifest.title = _title;
    artifact.manifest.eventScale = _config.eventScale;
    artifact.manifest.threads = simulationThreads();
    artifact.manifest.quick = _options.quick;
    artifact.tables = _tables;
    artifact.notes = _notes;
    artifact.metrics = _metrics;
    // If no grid run was timed (e.g. a trace-stats bench), fall back
    // to the total wall time so throughput is still meaningful.
    if (artifact.metrics.runSeconds() <= 0.0)
        artifact.metrics.recordRunWindow(total_seconds);
    return artifact;
}

void
writeArtifactFile(const RunArtifact &artifact, const std::string &dir,
                  const std::string &slug, const RunConfig &config,
                  bool echo)
{
    const std::string path = dir + "/" + slug + ".json";
    const auto written =
        runWithRetries(config.retry, [&](unsigned attempt) {
            config.faults.check("artifact", path, attempt);
            const auto result = artifact.write(path);
            if (!result.ok())
                throw RunException(result.error());
        });
    if (!written.ok()) {
        throw RunException(RunError::permanent(
            "artifact write failed: " + written.error().describe()));
    }
    if (echo)
        std::printf("(json artifact written to %s)\n", path.c_str());
}

void
warnFailedCells(const RunArtifact &artifact)
{
    const std::size_t failed_cells = artifact.metrics.failureCount();
    if (failed_cells == 0)
        return;
    std::fprintf(stderr, "warning: %zu cell%s failed permanently:\n",
                 failed_cells, failed_cells == 1 ? "" : "s");
    for (const auto &failure : artifact.metrics.failures()) {
        std::fprintf(stderr, "  [%s][%s] %s: %s\n",
                     failure.column.c_str(), failure.benchmark.c_str(),
                     failure.kind.c_str(), failure.error.c_str());
    }
}

ExperimentRunResult
runExperimentInProcess(const ExperimentDef &def,
                       const ExperimentOptions &requested)
{
    // One config for the header, the context and the artifact write.
    ExperimentOptions options = requested;
    options.config = requested.runConfig();
    ExperimentRunResult out;
    if (options.echo) {
        std::printf("=== %s: %s ===\n", def.slug.c_str(),
                    def.title.c_str());
        std::printf("(threads: %u, event scale: %.2f)\n\n",
                    simulationThreads(), options.config->eventScale);
    }
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    try {
        ExperimentContext context(def.slug, def.title, options);
        def.body(context);
        out.restoredCells = context.restoredCells();
        out.artifact = std::make_shared<RunArtifact>(
            context.buildArtifact(elapsed()));

        if (!options.jsonDir.empty()) {
            writeArtifactFile(*out.artifact, options.jsonDir, def.slug,
                              *options.config, options.echo);
        }

        const std::size_t failed_cells =
            out.artifact->metrics.failureCount();
        if (options.echo)
            warnFailedCells(*out.artifact);
        // Exit 3 = completed but partial; distinguishable from both
        // a clean run (0) and a fatal failure (1) in scripts and CI.
        out.exitCode = failed_cells > 0 ? 3 : 0;
    } catch (const std::exception &error) {
        out.error = error.what();
        out.exitCode = 1;
        if (options.echo)
            std::fprintf(stderr, "experiment failed: %s\n",
                         error.what());
    }
    out.seconds = elapsed();
    if (options.echo && out.exitCode != 1) {
        std::printf("[%s done in %.1f s]\n", def.slug.c_str(),
                    out.seconds);
    }
    return out;
}

} // namespace ibp
