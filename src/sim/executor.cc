#include "sim/executor.hh"

#include <algorithm>
#include <chrono>
#include <new>
#include <system_error>
#include <unistd.h>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace ibp {

namespace {

/** Pool index of this thread; -1 on threads the pool does not own. */
thread_local int tlWorkerIndex = -1;

} // namespace

int
Executor::currentWorkerIndex()
{
    return tlWorkerIndex;
}

Executor::Executor() : _ownerPid(static_cast<long>(::getpid())) {}

Executor &
Executor::global()
{
    // Function-local static: constructed on first use, destroyed
    // (joining all workers) at static destruction after main.
    static Executor executor;
    return executor;
}

void
Executor::wake()
{
    {
        std::lock_guard<std::mutex> lock(_sleepMutex);
        ++_sleepEpoch;
    }
    _sleepCv.notify_all();
}

void
Executor::enqueue(Task task)
{
    const unsigned active = _active.load(std::memory_order_acquire);
    if (active == 0) {
        // No pool: run inline on the caller. This is the serial
        // degradation path (thread creation failed) and the
        // behaviour of a single-threaded platform.
        runTask(task);
        return;
    }
    // A pool worker pushes to its own deque (popped LIFO below, so
    // freshly split work stays cache-warm on the splitter unless
    // stolen); external threads round-robin across workers.
    const int self = tlWorkerIndex;
    unsigned target;
    if (self >= 0 && static_cast<unsigned>(self) < active) {
        target = static_cast<unsigned>(self);
    } else {
        target = _rr.fetch_add(1, std::memory_order_relaxed) % active;
    }
    Worker &worker = *_workers[target];
    {
        std::lock_guard<std::mutex> lock(worker.mutex);
        worker.queue.push_back(std::move(task));
    }
    wake();
}

bool
Executor::takeTask(unsigned self, Task &out)
{
    // Own deque first, newest entry (LIFO).
    Worker &own = *_workers[self];
    {
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.queue.empty()) {
            out = std::move(own.queue.back());
            own.queue.pop_back();
            return true;
        }
    }
    // Steal the oldest entry (FIFO) from any other published worker.
    // Retired workers keep their (drained) structs, so scanning the
    // whole published range is safe and also picks up any stragglers
    // left in a retired queue.
    const unsigned published =
        _published.load(std::memory_order_acquire);
    for (unsigned step = 1; step < published; ++step) {
        const unsigned victim = (self + step) % published;
        Worker &other = *_workers[victim];
        std::lock_guard<std::mutex> lock(other.mutex);
        if (!other.queue.empty()) {
            out = std::move(other.queue.front());
            other.queue.pop_front();
            return true;
        }
    }
    return false;
}

void
Executor::runTask(Task &task)
{
    try {
        task.fn();
    } catch (const std::exception &exception) {
        // Tasks are expected to handle their own failures (cells
        // record a FailureRecord, groups fall back to per-cell); an
        // exception reaching here is a harness bug, but killing the
        // pool over it would turn one bad cell into a hung process.
        warn("executor task terminated with exception: %s",
             exception.what());
    } catch (...) {
        warn("executor task terminated with unknown exception");
    }
    if (task.batch != nullptr)
        task.batch->finish();
    // Completion side of the drain()/idleWait() ledger: every task
    // passes through runTask exactly once (workers, inline
    // degradation, and resize migration all end up here), so the
    // decrement cannot double-count a migrated task.
    if (_outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(_drainMutex);
        _drainCv.notify_all();
    }
}

void
Executor::drain()
{
    if (_outstanding.load(std::memory_order_acquire) == 0)
        return;
    std::unique_lock<std::mutex> lock(_drainMutex);
    _drainCv.wait(lock, [&] {
        return _outstanding.load(std::memory_order_acquire) == 0;
    });
}

bool
Executor::idleWait(double timeout_seconds)
{
    if (_outstanding.load(std::memory_order_acquire) == 0)
        return true;
    std::unique_lock<std::mutex> lock(_drainMutex);
    return _drainCv.wait_for(
        lock, std::chrono::duration<double>(timeout_seconds), [&] {
            return _outstanding.load(std::memory_order_acquire) == 0;
        });
}

void
Executor::workerLoop(unsigned index)
{
    tlWorkerIndex = static_cast<int>(index);
    Task task;
    while (true) {
        if (_stopping.load(std::memory_order_acquire) ||
            index >= _active.load(std::memory_order_acquire)) {
            return; // retired: leftovers are migrated after join
        }
        if (takeTask(index, task)) {
            runTask(task);
            continue;
        }
        // Sleep protocol: remember the enqueue epoch, re-scan, and
        // park only if no enqueue happened since - an enqueue
        // between the scan and the wait bumps the epoch and the
        // predicate refuses to sleep (no missed wakeups).
        std::uint64_t seen;
        {
            std::lock_guard<std::mutex> lock(_sleepMutex);
            seen = _sleepEpoch;
        }
        if (takeTask(index, task)) {
            runTask(task);
            continue;
        }
        std::unique_lock<std::mutex> lock(_sleepMutex);
        if (_sleepEpoch != seen)
            continue;
        _idle.fetch_add(1, std::memory_order_relaxed);
        _sleepCv.wait(lock, [&] {
            return _sleepEpoch != seen ||
                   _stopping.load(std::memory_order_acquire) ||
                   index >= _active.load(std::memory_order_acquire);
        });
        _idle.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
Executor::ensureWorkers(unsigned count)
{
    std::lock_guard<std::mutex> resize(_resizeMutex);
    count = std::min(count, kMaxWorkers);
    if (_stopping.load(std::memory_order_acquire))
        return;
    const unsigned old = _active.load(std::memory_order_acquire);
    if (count == old)
        return;

    if (count < old) {
        // Retire the excess workers: drop the active count, wake
        // them so they notice, join, then migrate whatever was left
        // in their deques. The structs stay published forever, which
        // is what keeps concurrent thieves safe across this resize.
        _active.store(count, std::memory_order_release);
        wake();
        std::vector<Task> leftovers;
        for (unsigned i = count; i < old; ++i) {
            Worker &worker = *_workers[i];
            if (worker.thread.joinable())
                worker.thread.join();
            worker.thread = std::thread();
            std::lock_guard<std::mutex> lock(worker.mutex);
            while (!worker.queue.empty()) {
                leftovers.push_back(std::move(worker.queue.front()));
                worker.queue.pop_front();
            }
        }
        for (auto &task : leftovers) {
            if (count > 0)
                enqueue(std::move(task));
            else
                runTask(task);
        }
        return;
    }

    // Grow: publish the structs first (so thieves can scan them),
    // then raise the active count, then start threads. A worker that
    // starts before _active covers its index would just exit, hence
    // the store-before-spawn order.
    for (unsigned i = old; i < count; ++i) {
        if (!_workers[i]) {
            _workers[i] = std::make_unique<Worker>();
            _workers[i]->index = i;
            _published.store(i + 1, std::memory_order_release);
        }
    }
    _active.store(count, std::memory_order_release);
    unsigned started = count;
    for (unsigned i = old; i < count; ++i) {
        try {
            _workers[i]->thread =
                std::thread(&Executor::workerLoop, this, i);
        } catch (const std::system_error &exception) {
            warn("worker thread construction failed after %u of %u "
                 "(%s); continuing degraded",
                 i, count, exception.what());
            started = i;
            break;
        }
    }
    if (started != count) {
        _active.store(started, std::memory_order_release);
        wake();
    }
}

void
Executor::resetAfterFork()
{
    const unsigned published =
        _published.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < published; ++i) {
        // Leak the inherited struct wholesale: a parent thread may
        // have held its mutex mid-enqueue at fork time, and its
        // std::thread handle names a thread this process never had -
        // running either destructor could block or abort.
        if (_workers[i])
            (void)_workers[i].release();
    }
    _published.store(0, std::memory_order_relaxed);
    _active.store(0, std::memory_order_relaxed);
    _idle.store(0, std::memory_order_relaxed);
    _rr.store(0, std::memory_order_relaxed);
    _stopping.store(false, std::memory_order_relaxed);
    _outstanding.store(0, std::memory_order_relaxed);
    new (&_drainMutex) std::mutex();
    new (&_drainCv) std::condition_variable();
    new (&_resizeMutex) std::mutex();
    new (&_sleepMutex) std::mutex();
    new (&_sleepCv) std::condition_variable();
    _sleepEpoch = 0;
    _ownerPid = static_cast<long>(::getpid());
    tlWorkerIndex = -1;
}

Executor::~Executor()
{
    // A fork()ed child (gtest death tests use fork, fatal() exits
    // through static destruction) inherits this object but none of
    // its worker threads; joining the copied handles would block
    // forever. Detach them and leave - the threads only ever existed
    // in the parent, and the parent still joins normally.
    if (static_cast<long>(::getpid()) != _ownerPid) {
        const unsigned published =
            _published.load(std::memory_order_relaxed);
        for (unsigned i = 0; i < published; ++i) {
            if (_workers[i] && _workers[i]->thread.joinable())
                _workers[i]->thread.detach();
        }
        // The copied condvar still records the parent's parked
        // waiters, and glibc's pthread_cond_destroy blocks until all
        // waiters drain - which never happens in a process that owns
        // none of those threads. Overwrite it with a fresh condvar
        // (nothing heap-held to leak) so the member destructor that
        // runs right after this body cannot block.
        new (&_sleepCv) std::condition_variable();
        return;
    }
    {
        std::lock_guard<std::mutex> resize(_resizeMutex);
        _stopping.store(true, std::memory_order_release);
    }
    wake();
    const unsigned published =
        _published.load(std::memory_order_acquire);
    for (unsigned i = 0; i < published; ++i) {
        if (_workers[i] && _workers[i]->thread.joinable())
            _workers[i]->thread.join();
    }
}

void
Executor::Batch::spawn(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        ++_pending;
    }
    // The drain ledger counts a task from submission (here and in
    // spawnDeferred), not from enqueueing: resize migration re-routes
    // tasks through enqueue() without re-submitting them.
    _executor._outstanding.fetch_add(1, std::memory_order_acq_rel);
    _executor.enqueue(Task{std::move(fn), this});
}

void
Executor::Batch::defer()
{
    std::lock_guard<std::mutex> lock(_mutex);
    ++_pending;
}

void
Executor::Batch::spawnDeferred(std::function<void()> fn)
{
    _executor._outstanding.fetch_add(1, std::memory_order_acq_rel);
    _executor.enqueue(Task{std::move(fn), this});
}

void
Executor::Batch::cancelDeferred()
{
    finish();
}

void
Executor::Batch::finish()
{
    // Decrement and notify under the lock: wait() only returns once
    // it holds the lock and sees zero, which cannot happen until this
    // worker has released it - its last touch of the batch - so the
    // owner may destroy the batch the moment wait() returns.
    std::lock_guard<std::mutex> lock(_mutex);
    if (--_pending == 0)
        _cv.notify_all();
}

void
Executor::Batch::wait()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _cv.wait(lock, [&] { return _pending == 0; });
}

} // namespace ibp
