#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

using smartconf::exec::ThreadPool;

TEST(ThreadPool, SubmitReturnsResult)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2u);
    std::future<int> f = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DefaultConcurrencyAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 500; ++i)
        futures.push_back(pool.submit([i] { return i; }));
    int sum = 0;
    for (auto &f : futures)
        sum += f.get();
    EXPECT_EQ(sum, 499 * 500 / 2);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    std::future<int> ok = pool.submit([] { return 1; });
    std::future<int> bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 1);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 2; }).get(), 2);
}

TEST(ThreadPool, SubmitFromManyThreadsStress)
{
    ThreadPool pool(4);
    constexpr int kSubmitters = 8;
    constexpr int kTasksEach = 200;
    std::atomic<int> executed{0};

    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<int>>> futures(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            for (int i = 0; i < kTasksEach; ++i)
                futures[s].push_back(pool.submit([&executed, i] {
                    executed.fetch_add(1, std::memory_order_relaxed);
                    return i;
                }));
        });
    }
    for (std::thread &t : submitters)
        t.join();

    int sum = 0;
    for (auto &per_thread : futures)
        for (auto &f : per_thread)
            sum += f.get();
    EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
    EXPECT_EQ(sum, kSubmitters * (kTasksEach - 1) * kTasksEach / 2);
}

TEST(ThreadPool, WorkerCanSubmitFollowUpWork)
{
    ThreadPool pool(2);
    // The outer task submits the inner one and hands back its future
    // without blocking on it (blocking inside a worker could deadlock
    // a saturated pool).
    std::future<std::future<int>> outer =
        pool.submit([&pool] { return pool.submit([] { return 9; }); });
    EXPECT_EQ(outer.get().get(), 9);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> executed{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i)
            pool.submit([&executed] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                executed.fetch_add(1);
            });
    } // ~ThreadPool joins after the queue drains
    EXPECT_EQ(executed.load(), 50);
}

} // namespace
