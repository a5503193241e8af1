/**
 * @file
 * Coverage for the parallelFor pool: index placement, the empty and
 * small grids, lowest-index exception propagation, repeated and
 * concurrent calls, and shutdown right after a burst of calls.  The
 * ThreadPool* suites run under the tsan and asan presets (see
 * CMakePresets.json).
 */

#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

using smartconf::exec::ThreadPool;

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    int out = 0;
    pool.parallelFor(1, [&](std::size_t) { out = 7; });
    EXPECT_EQ(out, 7);
}

TEST(ThreadPool, DefaultConcurrencyAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete)
{
    ThreadPool pool(4);
    std::vector<int> out(500, -1);
    pool.parallelFor(out.size(), [&](std::size_t i) {
        out[i] = static_cast<int>(i);
    });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0),
              499 * 500 / 2);
}

TEST(ThreadPool, TwoThreadsCallParallelForAtOnce)
{
    // Two callers share one pool; their calls are serialised, and
    // each sees only its own grid run to completion.
    ThreadPool pool(4);
    constexpr std::size_t kN = 2000;
    constexpr int kRounds = 50;
    std::vector<std::vector<std::size_t>> out(
        2, std::vector<std::size_t>(kN, 0));
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < 2; ++c) {
        callers.emplace_back([&, c] {
            for (int round = 1; round <= kRounds; ++round)
                pool.parallelFor(kN, [&, c, round](std::size_t i) {
                    out[c][i] = i * (c + 2) + round;
                });
        });
    }
    for (std::thread &t : callers)
        t.join();
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(out[c][i], i * (c + 2) + kRounds)
                << "caller " << c << " index " << i;
}

TEST(ThreadPool, BackToBackCallsThenDestructionDoesNotHang)
{
    // The fleet's per-epoch pattern: many short calls in a row, then
    // the pool goes away at once.
    std::atomic<std::size_t> ran{0};
    {
        ThreadPool pool(4);
        for (int call = 0; call < 1000; ++call)
            pool.parallelFor(8, [&](std::size_t) {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
    }
    EXPECT_EQ(ran.load(), 8000u);
}

TEST(ThreadPoolStress, SkewedTaskDurationsAllComplete)
{
    // A few slow bodies next to many trivial ones: the other workers
    // must keep draining the short tail while the slow ones run.
    ThreadPool pool(4);
    constexpr std::size_t kN = 400;
    std::vector<long> out(kN, -1);
    pool.parallelFor(kN, [&](std::size_t i) {
        if (i % 37 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        out[i] = static_cast<long>(i);
    });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0L),
              static_cast<long>(kN - 1) * kN / 2);
}

TEST(ThreadPoolParallelFor, ResultsLandAtOwnIndex)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::size_t> out(kN, 0);
    pool.parallelFor(kN, [&](std::size_t i) { out[i] = i * 3 + 1; });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(out[i], i * 3 + 1) << "index " << i;
}

TEST(ThreadPoolParallelFor, ZeroIterationsIsANoop)
{
    ThreadPool pool(2);
    bool touched = false;
    pool.parallelFor(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPoolParallelFor, FewerItemsThanWorkers)
{
    ThreadPool pool(8);
    std::vector<int> out(3, 0);
    pool.parallelFor(3, [&](std::size_t i) {
        out[i] = static_cast<int>(i) + 10;
    });
    EXPECT_EQ(out[0], 10);
    EXPECT_EQ(out[1], 11);
    EXPECT_EQ(out[2], 12);
}

TEST(ThreadPoolParallelFor, LowestIndexExceptionWinsAndAllIndicesRun)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 500;
    std::atomic<std::size_t> ran{0};
    try {
        pool.parallelFor(kN, [&](std::size_t i) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i == 3 || i == 250 || i == 400)
                throw std::runtime_error("body " +
                                         std::to_string(i));
        });
        FAIL() << "expected parallelFor to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "body 3");
    }
    // Every index still executed; a throwing body does not abort the
    // rest of the grid.
    EXPECT_EQ(ran.load(), kN);

    // The pool survives a throwing call.
    std::vector<int> out(4, 0);
    pool.parallelFor(out.size(), [&](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 4);
}

TEST(ThreadPoolParallelFor, RepeatedCalls)
{
    ThreadPool pool(4);
    std::vector<double> out(256, 0.0);
    for (int round = 0; round < 10; ++round) {
        pool.parallelFor(out.size(), [&](std::size_t i) {
            out[i] = static_cast<double>(i) * round;
        });
        for (std::size_t i = 0; i < out.size(); ++i)
            ASSERT_EQ(out[i], static_cast<double>(i) * round);
    }
}

} // namespace
