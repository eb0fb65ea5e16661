/**
 * @file
 * Persistent work-stealing executor for grid simulation.
 *
 * SuiteRunner used to spawn a fresh batch of std::threads for every
 * run() call and join them at the end, which (a) paid thread
 * creation per grid, (b) serialized trace acquisition against
 * simulation, and (c) bounded a grid's wall clock by its largest
 * benchmark group. This executor replaces that: ONE process-wide
 * pool, sized by simulationThreads(), with a per-worker deque of
 * tasks. A worker pops its own deque LIFO (so a split-off half of a
 * fused sweep chunk stays cache-warm) and steals FIFO from any other
 * worker when its own deque runs dry, so a single huge benchmark
 * group no longer serializes the tail of a grid.
 *
 * Tasks are grouped into Batches: a Batch counts the tasks spawned
 * into it and wait() blocks until all of them finished. Work that
 * becomes runnable later (a sweep group waiting for its trace) is
 * accounted with defer()/spawnDeferred()/cancelDeferred(), so a
 * wait()ing caller cannot race past a group whose trace has not
 * landed yet.
 *
 * Degradation: if no worker thread could be created (resource
 * pressure, exotic platforms), spawn() runs the task inline on the
 * calling thread - the executor then behaves exactly like the serial
 * fallback the old spawn-per-run scheduler had.
 *
 * Thread-safety: ensureWorkers() must not run concurrently with
 * itself; SuiteRunner calls it from the (single) driving thread
 * only. Everything else is safe to call from any thread, including
 * pool workers (tasks may spawn further tasks into their batch).
 */

#ifndef IBP_SIM_EXECUTOR_HH
#define IBP_SIM_EXECUTOR_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

namespace ibp {

class Executor
{
  public:
    /** Hard cap on pool size (IBP_THREADS beyond this is clamped). */
    static constexpr unsigned kMaxWorkers = 256;

    /**
     * Tracks a set of related tasks so the owner can wait for all of
     * them. Destroying a Batch waits; a Batch must outlive every
     * task spawned into it.
     */
    class Batch
    {
      public:
        explicit Batch(Executor &executor) : _executor(executor) {}
        ~Batch() { wait(); }
        Batch(const Batch &) = delete;
        Batch &operator=(const Batch &) = delete;

        /** Enqueue @p fn (inline when the pool has no workers). */
        void spawn(std::function<void()> fn);

        /**
         * Reserve one unit of not-yet-spawnable work. wait() blocks
         * until it is either spawnDeferred()'d and finishes, or
         * cancelDeferred()'d.
         */
        void defer();

        /** Enqueue work reserved by a matching defer(). */
        void spawnDeferred(std::function<void()> fn);

        /** Release a defer() whose work will never materialise. */
        void cancelDeferred();

        /** Block until every spawned/deferred task resolved. */
        void wait();

      private:
        friend class Executor;
        void finish();

        Executor &_executor;
        /** Spawned or deferred tasks not yet finished; guarded by
         *  _mutex, which finish() holds through its notify so a
         *  returning wait() never races a worker still inside the
         *  batch. */
        std::size_t _pending = 0;
        std::mutex _mutex;
        std::condition_variable _cv;
    };

    /** The process-wide pool (workers join at process exit). */
    static Executor &global();

    /**
     * Grow or shrink the pool to @p count workers. Shrinking joins
     * the excess threads and migrates their queued tasks; growing
     * that fails mid-way (thread creation error) degrades to
     * whatever was created, with a warning. Worker structs are never
     * freed once published, so concurrent thieves scanning the pool
     * stay safe across resizes. Call from one thread at a time.
     */
    void ensureWorkers(unsigned count);

    /** Workers currently accepting work (0 = inline execution). */
    unsigned workerCount() const
    {
        return _active.load(std::memory_order_acquire);
    }

    /** Workers parked waiting for work right now (approximate). */
    unsigned idleWorkers() const
    {
        return _idle.load(std::memory_order_relaxed);
    }

    /** Pool index of the calling thread, -1 off-pool. */
    static int currentWorkerIndex();

    /**
     * Tasks currently queued or executing, including the transitive
     * children of running tasks (a task that spawns counts its
     * spawn immediately). 0 means the pool is quiescent *right now*;
     * concurrent producers can re-busy it the next instant.
     */
    std::size_t outstandingTasks() const
    {
        return _outstanding.load(std::memory_order_acquire);
    }

    /**
     * Block until the pool is quiescent: every queued task (and
     * every task those tasks spawned) has finished. The caller must
     * have stopped submitting new work itself, but drain() tolerates
     * *other* producers - it simply waits until the pool hits a
     * moment of global idleness. Never tears workers down; the pool
     * is immediately reusable. This is what the daemon's graceful
     * drain runs before checkpointing, and what deterministic bench
     * timing uses to fence preceding warm-up work. Must not be
     * called from inside a pool task (it would wait on itself).
     */
    void drain();

    /**
     * drain() with a timeout: true when the pool reached quiescence
     * within @p timeoutSeconds, false when work was still in flight
     * when the clock ran out.
     */
    bool idleWait(double timeoutSeconds);

    /**
     * Re-initialise the pool in a freshly fork()ed child. The worker
     * threads exist only in the parent, and a parent thread may have
     * held any pool mutex at the instant of the fork, so the child
     * must not touch the inherited state: the published worker
     * structs are deliberately leaked (running their destructors
     * could block on a mutex no thread of this process holds), every
     * synchronisation primitive is re-constructed in place, and the
     * counters reset so the next ensureWorkers() builds a fresh
     * pool. Call immediately after fork(), before any executor use,
     * from the child's only thread (worker lanes, docs/SERVICE.md).
     */
    void resetAfterFork();

    ~Executor();

  private:
    struct Task
    {
        std::function<void()> fn;
        Batch *batch = nullptr;
    };

    struct Worker
    {
        std::mutex mutex;
        std::deque<Task> queue;
        std::thread thread;
        unsigned index = 0;
    };

    Executor();

    void enqueue(Task task);
    bool takeTask(unsigned self, Task &out);
    void workerLoop(unsigned index);
    void runTask(Task &task);
    void wake();

    /** Slots are published once and never freed (see ensureWorkers). */
    std::array<std::unique_ptr<Worker>, kMaxWorkers> _workers;
    std::atomic<unsigned> _published{0};
    std::atomic<unsigned> _active{0};
    std::atomic<unsigned> _idle{0};
    std::atomic<unsigned> _rr{0};
    std::atomic<bool> _stopping{false};

    /** Queued-or-running task count backing drain()/idleWait(). */
    std::atomic<std::size_t> _outstanding{0};
    std::mutex _drainMutex;
    std::condition_variable _drainCv;

    /** Pid that constructed the pool; a fork()ed child (death
     *  tests) inherits the object but none of the threads, so its
     *  destructor must not join (see ~Executor). */
    long _ownerPid = 0;

    /** Serializes ensureWorkers() against the destructor. */
    std::mutex _resizeMutex;

    /**
     * Sleep coordination: a worker that found no work re-reads
     * _sleepEpoch under the mutex and sleeps only if no enqueue
     * happened since it started scanning (no missed wakeups).
     */
    std::mutex _sleepMutex;
    std::condition_variable _sleepCv;
    std::uint64_t _sleepEpoch = 0;
};

} // namespace ibp

#endif // IBP_SIM_EXECUTOR_HH
