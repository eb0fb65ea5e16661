#include "report/run_metrics.hh"

#include <algorithm>

namespace ibp {

RunMetrics::RunMetrics(const RunMetrics &other)
{
    *this = other;
}

RunMetrics &
RunMetrics::operator=(const RunMetrics &other)
{
    if (this == &other)
        return *this;
    std::scoped_lock lock(_mutex, other._mutex);
    _cells = other._cells;
    _failures = other._failures;
    _runSeconds = other._runSeconds;
    _threads = other._threads;
    _hasTraceSource = other._hasTraceSource;
    _tracesGenerated = other._tracesGenerated;
    _traceCacheHits = other._traceCacheHits;
    _traceMmapHits = other._traceMmapHits;
    _traceStreamHits = other._traceStreamHits;
    _traceSeconds = other._traceSeconds;
    _hasSweepKernel = other._hasSweepKernel;
    _sweepKernel = other._sweepKernel;
    _hasSimd = other._hasSimd;
    _simd = other._simd;
    _hasServe = other._hasServe;
    _serve = other._serve;
    _hasResultStore = other._hasResultStore;
    _resultStore = other._resultStore;
    return *this;
}

void
RunMetrics::recordCell(const CellMetrics &cell)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _cells.push_back(cell);
}

void
RunMetrics::recordFailure(const FailureRecord &failure)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _failures.push_back(failure);
}

std::vector<FailureRecord>
RunMetrics::failures() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _failures;
}

std::size_t
RunMetrics::failureCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _failures.size();
}

void
RunMetrics::recordRunWindow(double seconds)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _runSeconds += seconds;
}

void
RunMetrics::recordThreads(unsigned count)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _threads = std::max(_threads, count);
}

void
RunMetrics::recordTraceSource(unsigned generated, unsigned mmap_hits,
                              unsigned stream_hits, double seconds)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _hasTraceSource = true;
    _tracesGenerated += generated;
    _traceCacheHits += mmap_hits + stream_hits;
    _traceMmapHits += mmap_hits;
    _traceStreamHits += stream_hits;
    _traceSeconds += seconds;
}

void
RunMetrics::recordSweepKernel(const SweepKernelStats &stats)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _hasSweepKernel = true;
    _sweepKernel.groupsFused += stats.groupsFused;
    _sweepKernel.groupsPerCell += stats.groupsPerCell;
    _sweepKernel.predictorsBound += stats.predictorsBound;
    _sweepKernel.predictorsUnbound += stats.predictorsUnbound;
    _sweepKernel.predictorsDeduped += stats.predictorsDeduped;
    _sweepKernel.fallbackFactory += stats.fallbackFactory;
    _sweepKernel.fallbackCancelled += stats.fallbackCancelled;
    _sweepKernel.fallbackInjected += stats.fallbackInjected;
    _sweepKernel.fallbackInjectorArmed += stats.fallbackInjectorArmed;
    _sweepKernel.fallbackError += stats.fallbackError;
}

void
RunMetrics::recordSimd(const SimdStats &stats)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _hasSimd = true;
    // The dispatch level describes the process, not one run: the
    // most recent record is as good as any earlier one.
    _simd.dispatchLevel = stats.dispatchLevel;
    _simd.fallbackReason = stats.fallbackReason;
    _simd.columnarBlocks += stats.columnarBlocks;
    _simd.transposedBlocks += stats.transposedBlocks;
    _simd.skippedRecords += stats.skippedRecords;
    _simd.laneColumns += stats.laneColumns;
    _simd.genericColumns += stats.genericColumns;
    _simd.laneMachines += stats.laneMachines;
}

bool
RunMetrics::hasSimd() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hasSimd;
}

SimdStats
RunMetrics::simd() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _simd;
}

void
RunMetrics::recordServe(const ServeMetrics &stats)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _hasServe = true;
    _serve.requests += stats.requests;
    _serve.coalesced += stats.coalesced;
    _serve.admissionRejects += stats.admissionRejects;
    _serve.warm = _serve.warm || stats.warm;
    _serve.queueSeconds =
        std::max(_serve.queueSeconds, stats.queueSeconds);
    _serve.jobSeconds =
        std::max(_serve.jobSeconds, stats.jobSeconds);
    _serve.shard.planned += stats.shard.planned;
    _serve.shard.requeued += stats.shard.requeued;
    _serve.shard.abandoned += stats.shard.abandoned;
    _serve.shard.stolenCells += stats.shard.stolenCells;
    _serve.shard.overlapCoalesced += stats.shard.overlapCoalesced;
    if (_serve.shard.laneCells.size() <
        stats.shard.laneCells.size()) {
        _serve.shard.laneCells.resize(stats.shard.laneCells.size());
    }
    for (std::size_t i = 0; i < stats.shard.laneCells.size(); ++i)
        _serve.shard.laneCells[i] += stats.shard.laneCells[i];
    _serve.shard.fanoutSeconds =
        std::max(_serve.shard.fanoutSeconds,
                 stats.shard.fanoutSeconds);
    _serve.shard.mergeSeconds =
        std::max(_serve.shard.mergeSeconds, stats.shard.mergeSeconds);
}

bool
RunMetrics::hasServe() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hasServe;
}

ServeMetrics
RunMetrics::serve() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _serve;
}

void
RunMetrics::recordResultStore(const ResultStoreStats &stats)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _hasResultStore = true;
    _resultStore.hits += stats.hits;
    _resultStore.misses += stats.misses;
    _resultStore.stores += stats.stores;
    _resultStore.invalidated += stats.invalidated;
    _resultStore.journalWritebacks += stats.journalWritebacks;
    _resultStore.claims += stats.claims;
    _resultStore.claimBusy += stats.claimBusy;
    _resultStore.claimServed += stats.claimServed;
    _resultStore.stolen += stats.stolen;
}

bool
RunMetrics::hasResultStore() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hasResultStore;
}

ResultStoreStats
RunMetrics::resultStore() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _resultStore;
}

bool
RunMetrics::hasSweepKernel() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hasSweepKernel;
}

SweepKernelStats
RunMetrics::sweepKernel() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _sweepKernel;
}

unsigned
RunMetrics::tracesGenerated() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _tracesGenerated;
}

unsigned
RunMetrics::traceCacheHits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _traceCacheHits;
}

unsigned
RunMetrics::traceMmapHits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _traceMmapHits;
}

unsigned
RunMetrics::traceStreamHits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _traceStreamHits;
}

std::string
RunMetrics::traceReadPath() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_traceCacheHits == 0)
        return _tracesGenerated > 0 ? "generated" : "none";
    if (_traceMmapHits > 0 && _traceStreamHits == 0)
        return "mmap";
    if (_traceStreamHits > 0 && _traceMmapHits == 0)
        return "stream";
    if (_traceMmapHits > 0 && _traceStreamHits > 0)
        return "mixed";
    // Hits whose transport predates the mmap/stream split (a legacy
    // artifact loaded through fromJson).
    return "cache";
}

double
RunMetrics::traceSeconds() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _traceSeconds;
}

bool
RunMetrics::hasTraceSource() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _hasTraceSource;
}

std::vector<CellMetrics>
RunMetrics::cells() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _cells;
}

std::size_t
RunMetrics::cellCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _cells.size();
}

std::uint64_t
RunMetrics::totalBranches() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::uint64_t total = 0;
    for (const auto &cell : _cells)
        total += cell.branches;
    return total;
}

double
RunMetrics::cellSeconds() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    double total = 0.0;
    for (const auto &cell : _cells)
        total += cell.seconds;
    return total;
}

double
RunMetrics::runSeconds() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _runSeconds;
}

double
RunMetrics::branchesPerSecond() const
{
    const double seconds = runSeconds();
    if (seconds <= 0.0)
        return 0.0;
    return static_cast<double>(totalBranches()) / seconds;
}

std::uint64_t
RunMetrics::peakTableOccupancy() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::uint64_t peak = 0;
    for (const auto &cell : _cells)
        peak = std::max(peak, cell.tableOccupancy);
    return peak;
}

unsigned
RunMetrics::threads() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _threads;
}

Json
RunMetrics::toJson() const
{
    Json json = Json::object();
    json.set("threads", threads());
    json.set("run_seconds", runSeconds());
    json.set("cell_seconds", cellSeconds());
    json.set("total_branches", totalBranches());
    json.set("branches_per_second", branchesPerSecond());
    json.set("peak_table_occupancy", peakTableOccupancy());

    Json cells_json = Json::array();
    for (const auto &cell : cells()) {
        Json entry = Json::object();
        entry.set("column", cell.column);
        entry.set("benchmark", cell.benchmark);
        entry.set("branches", cell.branches);
        entry.set("seconds", cell.seconds);
        entry.set("group_seconds", cell.groupSeconds);
        // Only emitted when true, so per-cell artifacts don't carry
        // a redundant false for every cell.
        if (cell.secondsSynthetic)
            entry.set("seconds_synthetic", true);
        entry.set("table_occupancy", cell.tableOccupancy);
        entry.set("table_capacity", cell.tableCapacity);
        cells_json.push(std::move(entry));
    }
    json.set("cells", std::move(cells_json));

    // Only emitted when the run was partial, so fault-free
    // artifacts (and the committed baselines) stay byte-identical
    // to schema version 1 output.
    const auto failed = failures();
    if (!failed.empty()) {
        Json failures_json = Json::array();
        for (const auto &failure : failed) {
            Json entry = Json::object();
            entry.set("column", failure.column);
            entry.set("benchmark", failure.benchmark);
            entry.set("error", failure.error);
            entry.set("kind", failure.kind);
            entry.set("attempts", failure.attempts);
            failures_json.push(std::move(entry));
        }
        json.set("failures", std::move(failures_json));
    }

    // Only emitted when a trace source was recorded, for the same
    // baseline byte-compatibility reason as "failures".
    if (hasTraceSource()) {
        Json source = Json::object();
        source.set("generated", tracesGenerated());
        source.set("cache_hits", traceCacheHits());
        source.set("mmap_hits", traceMmapHits());
        source.set("stream_hits", traceStreamHits());
        source.set("read_path", traceReadPath());
        source.set("seconds", traceSeconds());
        json.set("trace_source", std::move(source));
    }

    // Likewise emitted only when recorded, so artifacts produced
    // before the fused engine existed keep their schema.
    if (hasSweepKernel()) {
        const SweepKernelStats sweep = sweepKernel();
        Json kernel = Json::object();
        kernel.set("groups_fused", sweep.groupsFused);
        kernel.set("groups_per_cell", sweep.groupsPerCell);
        kernel.set("predictors_bound", sweep.predictorsBound);
        kernel.set("predictors_unbound", sweep.predictorsUnbound);
        kernel.set("predictors_deduped", sweep.predictorsDeduped);
        kernel.set("fallback_factory_error", sweep.fallbackFactory);
        kernel.set("fallback_cancelled", sweep.fallbackCancelled);
        kernel.set("fallback_fault_injected", sweep.fallbackInjected);
        kernel.set("fallback_injector_armed",
                   sweep.fallbackInjectorArmed);
        kernel.set("fallback_error", sweep.fallbackError);
        json.set("sweep_kernel", std::move(kernel));
    }

    // Likewise emitted only when recorded, so artifacts produced
    // before the SIMD/SoA engine keep their schema. The table diff
    // never compares this block: a columnar warm run and a
    // transposing cold run legitimately differ here while their
    // simulation results are bit-identical.
    if (hasSimd()) {
        const SimdStats stats = simd();
        Json block = Json::object();
        block.set("dispatch_level", stats.dispatchLevel);
        block.set("fallback_reason", stats.fallbackReason);
        block.set("columnar_blocks", stats.columnarBlocks);
        block.set("transposed_blocks", stats.transposedBlocks);
        block.set("skipped_records", stats.skippedRecords);
        block.set("lane_columns", stats.laneColumns);
        block.set("generic_columns", stats.genericColumns);
        block.set("lane_machines", stats.laneMachines);
        json.set("simd", std::move(block));
    }

    // Likewise emitted only when the run went through the ibpd
    // daemon; in-process artifacts stay byte-identical to their
    // pre-daemon schema, which is also what lets report_diff hold
    // served-vs-in-process runs to zero tolerance outside this
    // block.
    if (hasServe()) {
        const ServeMetrics stats = serve();
        Json served = Json::object();
        served.set("requests", stats.requests);
        served.set("coalesced", stats.coalesced);
        served.set("admission_rejects", stats.admissionRejects);
        served.set("warm", stats.warm);
        served.set("queue_seconds", stats.queueSeconds);
        served.set("job_seconds", stats.jobSeconds);
        // The shard sub-block only exists for sharded jobs, so
        // unsharded served artifacts keep their schema.
        if (stats.shard.planned > 0) {
            Json shard = Json::object();
            shard.set("shards_planned", stats.shard.planned);
            shard.set("shards_requeued", stats.shard.requeued);
            shard.set("shards_abandoned", stats.shard.abandoned);
            shard.set("stolen_cells", stats.shard.stolenCells);
            shard.set("overlap_cells_coalesced",
                      stats.shard.overlapCoalesced);
            Json lanes = Json::array();
            for (const auto cells : stats.shard.laneCells)
                lanes.push(Json(cells));
            shard.set("lane_cells", std::move(lanes));
            shard.set("fanout_seconds", stats.shard.fanoutSeconds);
            shard.set("merge_seconds", stats.shard.mergeSeconds);
            served.set("shard", std::move(shard));
        }
        json.set("serve", std::move(served));
    }

    // Likewise emitted only when a result store was armed, so
    // store-less artifacts (and the committed baselines) keep their
    // bytes; the CI warm-store gate greps these counters.
    if (hasResultStore()) {
        const ResultStoreStats stats = resultStore();
        Json store = Json::object();
        store.set("hits", stats.hits);
        store.set("misses", stats.misses);
        store.set("stores", stats.stores);
        store.set("invalidated", stats.invalidated);
        store.set("journal_writebacks", stats.journalWritebacks);
        // Claim counters appear only once the claim layer engaged,
        // so claim-free store artifacts keep their schema.
        if (stats.claims > 0 || stats.claimBusy > 0 ||
            stats.claimServed > 0 || stats.stolen > 0) {
            store.set("claims", stats.claims);
            store.set("claims_busy", stats.claimBusy);
            store.set("claims_served", stats.claimServed);
            store.set("cells_stolen", stats.stolen);
        }
        json.set("result_store", std::move(store));
    }
    return json;
}

RunMetrics
RunMetrics::fromJson(const Json &json)
{
    RunMetrics metrics;
    metrics.recordThreads(
        static_cast<unsigned>(json.numberOr("threads", 0)));
    metrics.recordRunWindow(json.numberOr("run_seconds", 0.0));
    if (json.contains("cells")) {
        const Json &cells = json.at("cells");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Json &entry = cells.at(i);
            CellMetrics cell;
            cell.column = entry.stringOr("column", "");
            cell.benchmark = entry.stringOr("benchmark", "");
            cell.branches = entry.at("branches").asUint();
            cell.seconds = entry.numberOr("seconds", 0.0);
            // Artifacts predating the fused engine carry no
            // group_seconds; for those the cell time is its own
            // traversal time.
            cell.groupSeconds =
                entry.numberOr("group_seconds", cell.seconds);
            cell.secondsSynthetic =
                entry.contains("seconds_synthetic") &&
                entry.at("seconds_synthetic").asBool();
            cell.tableOccupancy =
                entry.at("table_occupancy").asUint();
            cell.tableCapacity = entry.at("table_capacity").asUint();
            metrics.recordCell(cell);
        }
    }
    if (json.contains("failures")) {
        const Json &failures = json.at("failures");
        for (std::size_t i = 0; i < failures.size(); ++i) {
            const Json &entry = failures.at(i);
            FailureRecord failure;
            failure.column = entry.stringOr("column", "");
            failure.benchmark = entry.stringOr("benchmark", "");
            failure.error = entry.stringOr("error", "");
            failure.kind = entry.stringOr("kind", "permanent");
            failure.attempts = static_cast<unsigned>(
                entry.numberOr("attempts", 1));
            metrics.recordFailure(failure);
        }
    }
    if (json.contains("trace_source")) {
        const Json &source = json.at("trace_source");
        const auto mmap_hits =
            static_cast<unsigned>(source.numberOr("mmap_hits", 0));
        const auto stream_hits =
            static_cast<unsigned>(source.numberOr("stream_hits", 0));
        metrics.recordTraceSource(
            static_cast<unsigned>(source.numberOr("generated", 0)),
            mmap_hits, stream_hits, source.numberOr("seconds", 0.0));
        // Legacy artifacts carry only the aggregate hit count; keep
        // it without inventing a transport split (traceReadPath()
        // reports "cache" for these).
        const auto cache_hits =
            static_cast<unsigned>(source.numberOr("cache_hits", 0));
        if (cache_hits > mmap_hits + stream_hits)
            metrics._traceCacheHits = cache_hits;
    }
    if (json.contains("sweep_kernel")) {
        const Json &kernel = json.at("sweep_kernel");
        SweepKernelStats sweep;
        sweep.groupsFused = static_cast<unsigned>(
            kernel.numberOr("groups_fused", 0));
        sweep.groupsPerCell = static_cast<unsigned>(
            kernel.numberOr("groups_per_cell", 0));
        sweep.predictorsBound = static_cast<unsigned>(
            kernel.numberOr("predictors_bound", 0));
        sweep.predictorsUnbound = static_cast<unsigned>(
            kernel.numberOr("predictors_unbound", 0));
        sweep.predictorsDeduped = static_cast<unsigned>(
            kernel.numberOr("predictors_deduped", 0));
        sweep.fallbackFactory = static_cast<unsigned>(
            kernel.numberOr("fallback_factory_error", 0));
        sweep.fallbackCancelled = static_cast<unsigned>(
            kernel.numberOr("fallback_cancelled", 0));
        sweep.fallbackInjected = static_cast<unsigned>(
            kernel.numberOr("fallback_fault_injected", 0));
        sweep.fallbackInjectorArmed = static_cast<unsigned>(
            kernel.numberOr("fallback_injector_armed", 0));
        sweep.fallbackError = static_cast<unsigned>(
            kernel.numberOr("fallback_error", 0));
        metrics.recordSweepKernel(sweep);
    }
    if (json.contains("simd")) {
        const Json &block = json.at("simd");
        SimdStats stats;
        stats.dispatchLevel = block.stringOr("dispatch_level", "");
        stats.fallbackReason = block.stringOr("fallback_reason", "");
        stats.columnarBlocks = static_cast<std::uint64_t>(
            block.numberOr("columnar_blocks", 0));
        stats.transposedBlocks = static_cast<std::uint64_t>(
            block.numberOr("transposed_blocks", 0));
        stats.skippedRecords = static_cast<std::uint64_t>(
            block.numberOr("skipped_records", 0));
        stats.laneColumns = static_cast<std::uint64_t>(
            block.numberOr("lane_columns", 0));
        stats.genericColumns = static_cast<std::uint64_t>(
            block.numberOr("generic_columns", 0));
        stats.laneMachines = static_cast<std::uint64_t>(
            block.numberOr("lane_machines", 0));
        metrics.recordSimd(stats);
    }
    if (json.contains("serve")) {
        const Json &served = json.at("serve");
        ServeMetrics stats;
        stats.requests = static_cast<unsigned>(
            served.numberOr("requests", 0));
        stats.coalesced = static_cast<unsigned>(
            served.numberOr("coalesced", 0));
        stats.admissionRejects = static_cast<unsigned>(
            served.numberOr("admission_rejects", 0));
        stats.warm = served.contains("warm") &&
                     served.at("warm").asBool();
        stats.queueSeconds = served.numberOr("queue_seconds", 0.0);
        stats.jobSeconds = served.numberOr("job_seconds", 0.0);
        if (served.contains("shard")) {
            const Json &shard = served.at("shard");
            stats.shard.planned = static_cast<unsigned>(
                shard.numberOr("shards_planned", 0));
            stats.shard.requeued = static_cast<unsigned>(
                shard.numberOr("shards_requeued", 0));
            stats.shard.abandoned = static_cast<unsigned>(
                shard.numberOr("shards_abandoned", 0));
            stats.shard.stolenCells = static_cast<std::uint64_t>(
                shard.numberOr("stolen_cells", 0));
            stats.shard.overlapCoalesced =
                static_cast<std::uint64_t>(
                    shard.numberOr("overlap_cells_coalesced", 0));
            if (shard.contains("lane_cells")) {
                const Json &lanes = shard.at("lane_cells");
                for (std::size_t i = 0; i < lanes.size(); ++i) {
                    stats.shard.laneCells.push_back(
                        lanes.at(i).asUint());
                }
            }
            stats.shard.fanoutSeconds =
                shard.numberOr("fanout_seconds", 0.0);
            stats.shard.mergeSeconds =
                shard.numberOr("merge_seconds", 0.0);
        }
        metrics.recordServe(stats);
    }
    if (json.contains("result_store")) {
        const Json &store = json.at("result_store");
        ResultStoreStats stats;
        stats.hits =
            static_cast<unsigned>(store.numberOr("hits", 0));
        stats.misses =
            static_cast<unsigned>(store.numberOr("misses", 0));
        stats.stores =
            static_cast<unsigned>(store.numberOr("stores", 0));
        stats.invalidated =
            static_cast<unsigned>(store.numberOr("invalidated", 0));
        stats.journalWritebacks = static_cast<unsigned>(
            store.numberOr("journal_writebacks", 0));
        stats.claims =
            static_cast<unsigned>(store.numberOr("claims", 0));
        stats.claimBusy =
            static_cast<unsigned>(store.numberOr("claims_busy", 0));
        stats.claimServed = static_cast<unsigned>(
            store.numberOr("claims_served", 0));
        stats.stolen = static_cast<unsigned>(
            store.numberOr("cells_stolen", 0));
        metrics.recordResultStore(stats);
    }
    return metrics;
}

} // namespace ibp
