/**
 * @file
 * Unit tests of the persistent work-stealing executor: batch
 * completion, deferred-work accounting, nested spawns (tasks
 * spawning into their own batch), pool resizing up and down, inline
 * degradation at zero workers, and worker-index reporting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "sim/executor.hh"

namespace ibp {
namespace {

TEST(ExecutorTest, BatchRunsEveryTask)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(4);
    std::atomic<int> count{0};
    {
        Executor::Batch batch(executor);
        for (int i = 0; i < 200; ++i)
            batch.spawn([&count]() {
                count.fetch_add(1, std::memory_order_relaxed);
            });
        batch.wait();
        EXPECT_EQ(count.load(), 200);
    }
}

TEST(ExecutorTest, TasksRunOnPoolWorkers)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(4);
    EXPECT_EQ(executor.workerCount(), 4u);
    EXPECT_EQ(Executor::currentWorkerIndex(), -1); // off-pool caller

    std::mutex mutex;
    std::set<int> indexes;
    Executor::Batch batch(executor);
    for (int i = 0; i < 64; ++i) {
        batch.spawn([&]() {
            const int index = Executor::currentWorkerIndex();
            // Busy a moment so several workers get to participate.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            std::lock_guard<std::mutex> lock(mutex);
            indexes.insert(index);
        });
    }
    batch.wait();
    ASSERT_FALSE(indexes.empty());
    for (const int index : indexes) {
        EXPECT_GE(index, 0);
        EXPECT_LT(index, 4);
    }
}

TEST(ExecutorTest, NestedSpawnsJoinTheSameBatch)
{
    // A task may split itself and spawn the halves into its own
    // batch (how fused chunks split on idle); wait() must cover the
    // children too.
    Executor &executor = Executor::global();
    executor.ensureWorkers(4);
    std::atomic<int> count{0};
    Executor::Batch batch(executor);
    for (int i = 0; i < 8; ++i) {
        batch.spawn([&]() {
            count.fetch_add(1, std::memory_order_relaxed);
            for (int child = 0; child < 4; ++child) {
                batch.spawn([&count]() {
                    count.fetch_add(1, std::memory_order_relaxed);
                });
            }
        });
    }
    batch.wait();
    EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ExecutorTest, DeferredWorkGatesWait)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(2);
    std::atomic<bool> ran{false};
    Executor::Batch batch(executor);
    batch.defer();
    // wait() must not return while the deferred slot is unresolved;
    // resolve it from another thread after a delay and require the
    // task's effect to be visible after wait().
    std::thread resolver([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        batch.spawnDeferred([&ran]() { ran.store(true); });
    });
    batch.wait();
    EXPECT_TRUE(ran.load());
    resolver.join();
}

TEST(ExecutorTest, CancelledDeferredWorkReleasesWait)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(2);
    Executor::Batch batch(executor);
    batch.defer();
    batch.defer();
    batch.cancelDeferred();
    batch.cancelDeferred();
    batch.wait(); // would hang if cancel didn't release the slots
}

TEST(ExecutorTest, BatchDestroyedRightAfterWaitIsSafe)
{
    // Regression test for a use-after-free: wait() used to return on
    // a lock-free fast path while the worker that finished the last
    // task was still about to lock the batch mutex. Create, spawn,
    // wait and destroy back to back, so a worker still inside a
    // destroyed batch surfaces under ASan and TSan.
    Executor &executor = Executor::global();
    executor.ensureWorkers(4);
    std::atomic<int> count{0};
    int expected = 0;
    for (int round = 0; round < 2000; ++round) {
        auto batch = std::make_unique<Executor::Batch>(executor);
        const int tasks = 1 + round % 4;
        for (int i = 0; i < tasks; ++i) {
            batch->spawn([&count]() {
                count.fetch_add(1, std::memory_order_relaxed);
            });
        }
        if (round % 2 == 0) {
            batch->defer();
            batch->spawnDeferred([&count]() {
                count.fetch_add(1, std::memory_order_relaxed);
            });
            ++expected;
        }
        expected += tasks;
        batch->wait();
        batch.reset();
    }
    EXPECT_EQ(count.load(), expected);
}

TEST(ExecutorTest, ResizeUpAndDownKeepsExecuting)
{
    Executor &executor = Executor::global();
    for (const unsigned count : {1u, 8u, 2u, 4u}) {
        executor.ensureWorkers(count);
        EXPECT_EQ(executor.workerCount(), count);
        std::atomic<int> done{0};
        Executor::Batch batch(executor);
        for (int i = 0; i < 50; ++i)
            batch.spawn([&done]() {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        batch.wait();
        EXPECT_EQ(done.load(), 50);
    }
}

TEST(ExecutorTest, ZeroWorkersDegradesToInline)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(0);
    EXPECT_EQ(executor.workerCount(), 0u);
    bool ran = false;
    Executor::Batch batch(executor);
    // With no workers the spawn runs inline on this thread, so the
    // effect is visible immediately, before wait().
    batch.spawn([&ran]() {
        ran = true;
        EXPECT_EQ(Executor::currentWorkerIndex(), -1);
    });
    EXPECT_TRUE(ran);
    batch.wait();
    executor.ensureWorkers(2); // restore a pool for later tests
}

TEST(ExecutorTest, ManySmallBatchesDrainCompletely)
{
    // Regression guard for lost-wakeup bugs: many tiny batches in a
    // row, each must drain; a single missed notify deadlocks here.
    Executor &executor = Executor::global();
    executor.ensureWorkers(4);
    for (int round = 0; round < 200; ++round) {
        std::atomic<int> count{0};
        Executor::Batch batch(executor);
        for (int i = 0; i < 4; ++i)
            batch.spawn([&count]() {
                count.fetch_add(1, std::memory_order_relaxed);
            });
        batch.wait();
        ASSERT_EQ(count.load(), 4) << "round " << round;
    }
}

TEST(ExecutorTest, DrainWaitsForQueuedAndNestedWork)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(4);
    std::atomic<int> finished{0};
    Executor::Batch batch(executor);
    for (int i = 0; i < 32; ++i) {
        batch.spawn([&]() {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            // Nested children submitted from inside a running task
            // must also gate drain(): the ledger counts them the
            // moment they are spawned, before the parent finishes.
            batch.spawn([&]() {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                finished.fetch_add(1, std::memory_order_relaxed);
            });
            finished.fetch_add(1, std::memory_order_relaxed);
        });
    }
    executor.drain();
    EXPECT_EQ(executor.outstandingTasks(), 0u);
    EXPECT_EQ(finished.load(), 64);
    batch.wait();
}

TEST(ExecutorTest, DrainReturnsImmediatelyWhenIdle)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(2);
    executor.drain(); // settle anything left over from other tests
    const auto start = std::chrono::steady_clock::now();
    executor.drain();
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(seconds, 0.5);
    EXPECT_EQ(executor.outstandingTasks(), 0u);
}

TEST(ExecutorTest, IdleWaitTimesOutOnBlockedWork)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(2);
    std::mutex gate;
    gate.lock();
    Executor::Batch batch(executor);
    batch.spawn([&gate]() {
        std::lock_guard<std::mutex> hold(gate); // parked until unlock
    });
    EXPECT_FALSE(executor.idleWait(0.05));
    EXPECT_GT(executor.outstandingTasks(), 0u);
    gate.unlock();
    EXPECT_TRUE(executor.idleWait(10.0));
    EXPECT_EQ(executor.outstandingTasks(), 0u);
    batch.wait();
}

TEST(ExecutorTest, DrainCoversInlineExecution)
{
    Executor &executor = Executor::global();
    executor.ensureWorkers(0); // inline degradation path
    std::atomic<int> count{0};
    {
        Executor::Batch batch(executor);
        for (int i = 0; i < 8; ++i)
            batch.spawn([&]() { ++count; });
        batch.wait();
    }
    executor.drain();
    EXPECT_EQ(count.load(), 8);
    EXPECT_EQ(executor.outstandingTasks(), 0u);
    executor.ensureWorkers(4);
}

} // namespace
} // namespace ibp
