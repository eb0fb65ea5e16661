/**
 * @file
 * Trace-driven simulation of an indirect branch predictor.
 *
 * Follows the paper's methodology exactly: every dynamic indirect
 * branch (calls, jumps, switches; returns excluded) is first
 * predicted, then the predictor is updated with the resolved target.
 * Cold-start misses count. Conditional branches are passed through to
 * predictors that consume them (Target Cache, the section 3.3
 * conditional-history variant) and ignored by the rest.
 */

#ifndef IBP_SIM_SIMULATOR_HH
#define IBP_SIM_SIMULATOR_HH

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "trace/trace.hh"

namespace ibp {

/** Outcome of one predictor/trace run. */
struct SimResult
{
    std::string benchmark;
    std::string predictor;
    std::uint64_t branches = 0;
    std::uint64_t misses = 0;
    /** Misses where the predictor produced no target at all. */
    std::uint64_t noPrediction = 0;
    std::uint64_t tableOccupancy = 0;
    std::uint64_t tableCapacity = 0;
    /** Wall time of the simulation, in seconds: the traversal wall
     *  time divided evenly across its predictors - synthetic when
     *  more than one shared it, only the aggregate is physical. */
    double seconds = 0.0;
    /** Wall time of the whole traversal that produced this result;
     *  equals `seconds` for a one-predictor traversal. */
    double groupSeconds = 0.0;
    /** True when more than one predictor shared the traversal, i.e.
     *  `seconds` is synthetic (see groupSeconds). */
    bool sharedTraversal = false;

    /** Misprediction rate in percent (the paper's metric). */
    double
    missPercent() const
    {
        return branches == 0 ? 0.0
                             : 100.0 * static_cast<double>(misses) /
                                   static_cast<double>(branches);
    }

    /** Fraction of table entries in use (utilisation, section 5.2.1). */
    double
    utilisation() const
    {
        return tableCapacity == 0
                   ? 0.0
                   : static_cast<double>(tableOccupancy) /
                         static_cast<double>(tableCapacity);
    }
};

/**
 * Telemetry of one simulateMany() block traversal (see
 * SimOptions::traversal): how the records were fed (zero-copy
 * columnar blocks vs per-block transposes), how the call's sweep
 * kernel bound the predictors, and how the predictor columns were
 * partitioned between the batched lane engine and the generic
 * record-at-a-time path.
 */
struct TraversalStats
{
    /** Blocks served zero-copy from a columnar (v3 mmap) trace. */
    std::uint64_t columnarBlocks = 0;
    /** Blocks transposed from record storage into scratch columns. */
    std::uint64_t transposedBlocks = 0;
    /** Records skipped wholesale by the block classifier (returns,
     *  plus conditionals when nothing in the traversal consumes
     *  them). */
    std::uint64_t skippedRecords = 0;
    /** Predictor columns executed by the batched lane engine. */
    std::uint32_t laneColumns = 0;
    /** Columns that ran the generic record-at-a-time path. */
    std::uint32_t genericColumns = 0;
    /** Distinct state machines (dedup owners) the lane engine
     *  probes and trains once per record. */
    std::uint32_t laneMachines = 0;
    /** Predictors that joined the call's sweep kernel. */
    std::uint32_t predictorsBound = 0;
    /** Predictors that declined it and keep private history. */
    std::uint32_t predictorsUnbound = 0;
    /** Two-level columns deduplicated into replicas of an
     *  equal-configuration primary (SweepKernel::dedupe()). */
    std::uint32_t predictorsDeduped = 0;

    /** Accumulate another traversal's counters (run telemetry). */
    TraversalStats &
    operator+=(const TraversalStats &other)
    {
        columnarBlocks += other.columnarBlocks;
        transposedBlocks += other.transposedBlocks;
        skippedRecords += other.skippedRecords;
        laneColumns += other.laneColumns;
        genericColumns += other.genericColumns;
        laneMachines += other.laneMachines;
        predictorsBound += other.predictorsBound;
        predictorsUnbound += other.predictorsUnbound;
        predictorsDeduped += other.predictorsDeduped;
        return *this;
    }
};

/** Extra knobs for a simulation run. */
struct SimOptions
{
    /** Skip this many leading indirect branches (warm-up window
     *  excluded from the counts, still used for training). */
    std::uint64_t warmupBranches = 0;

    /**
     * Steady-clock deadline of this attempt; max() (the default)
     * disables it. simulateMany() compares the clock against it
     * once per trace block and every 1024 selected records, and
     * past it throws RunException with a timeout RunError. The
     * SuiteRunner sets it from the per-cell deadline; each attempt
     * owns its value, so no request can outlive the attempt it
     * was meant for.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();

    /** Optional out-parameter: simulateMany() fills it with block
     *  traversal telemetry (metrics.simd, metrics.sweep_kernel).
     *  nullptr disables. */
    TraversalStats *traversal = nullptr;
};

/**
 * Run @p predictor over @p trace: a one-column simulateMany() call,
 * with the same engine, counters and contracts.
 */
SimResult simulate(IndirectPredictor &predictor, const Trace &trace,
                   const SimOptions &options = {});

/**
 * The simulation engine: run every predictor of @p predictors over
 * @p trace in ONE traversal, producing for each exactly the counters
 * of the paper's per-record protocol (predict, count, update, push
 * history - the seed loop kept as tests/oracle/reference_simulate.hh
 * pins this bit for bit).
 *
 * The call builds its own SweepKernel (core/sweep_kernel.hh): every
 * predictor is offered to it, those that join share first-level
 * histories, key builds and - for equal configurations - whole
 * state machines, and the bound two-level and confidence-hybrid
 * columns run in the batched lane engine while the rest take the
 * generic record-at-a-time path. Conditional records reach only
 * predictors whose consumesConditionals() holds
 * (core/predictor.hh).
 *
 * Kernel lifetime: the kernel dies with the call and unbinds every
 * predictor first, so no pointer into it survives. A predictor's
 * first-level history lived in the kernel, so its state after the
 * call is not a resumable snapshot: reset() it before running it
 * again.
 *
 * Timing: each result's `seconds` is the traversal wall time divided
 * evenly across the predictors, with the undivided time in
 * `groupSeconds`; `sharedTraversal` marks a quotient of more than
 * one predictor (only the aggregate is physical then).
 *
 * Null predictor pointers are not allowed. An empty span returns an
 * empty vector without touching the trace.
 */
std::vector<SimResult>
simulateMany(std::span<IndirectPredictor *const> predictors,
             const Trace &trace, const SimOptions &options = {});

} // namespace ibp

#endif // IBP_SIM_SIMULATOR_HH
