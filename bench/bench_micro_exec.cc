/**
 * @file
 * Microbenchmarks for the work-stealing executor (google-benchmark).
 *
 * The sweep harness pushes every evaluation run through ThreadPool, so
 * its per-task overhead multiplies across the whole figure suite.  The
 * allocation counters are the proof obligation for the pooled task
 * path: steady-state submit() performs no global operator new at all
 * (the task node is recycled through the pool free list and the
 * promise's shared state through SharedStatePool), and parallelFor()
 * amortizes to zero allocations per index.
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <vector>

#include "exec/arena.h"
#include "exec/steal_deque.h"
#include "exec/thread_pool.h"

namespace {

/**
 * Global operator new/delete instrumentation.  Counting is always on
 * (the counter is a plain word increment); benchmarks snapshot it
 * around their hot loop and report the per-iteration delta.
 */
std::size_t g_allocs = 0;

} // namespace

// Our replacement operator new hands out malloc() memory, so free()
// in the matching deletes is correct; GCC cannot see that pairing.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using namespace smartconf;

void
reportAllocs(benchmark::State &state, std::size_t before,
             const char *name = "allocs_per_iter")
{
    state.counters[name] = benchmark::Counter(
        static_cast<double>(g_allocs - before),
        benchmark::Counter::kAvgIterations);
}

/**
 * Steady-state submit/get cycle with a warm node pool.  The criterion
 * is allocs_per_task <= 1; the recycled node + pooled shared state
 * actually land it at 0.
 */
void
BM_SubmitGetWarm(benchmark::State &state)
{
    exec::ThreadPool pool(2);
    // Warm the pool: first submissions carve nodes out of the arena.
    for (int i = 0; i < 64; ++i)
        pool.submit([] { return 0; }).get();
    pool.reclaim();
    for (int i = 0; i < 64; ++i)
        pool.submit([] { return 0; }).get();

    const std::size_t before = g_allocs;
    for (auto _ : state) {
        auto f = pool.submit([] { return 1; });
        benchmark::DoNotOptimize(f.get());
    }
    reportAllocs(state, before, "allocs_per_task");
}
BENCHMARK(BM_SubmitGetWarm);

/**
 * Bulk grid dispatch, the SweepRunner shape: one parallelFor over N
 * indices writing results at their own slot.  Reported per *item*;
 * the chunk-runner bookkeeping is shared across the whole call, so
 * this sits far below one allocation per index.
 */
void
BM_ParallelForPerItem(benchmark::State &state)
{
    const std::size_t n = 256;
    exec::ThreadPool pool(2);
    std::vector<double> out(n, 0.0);
    pool.parallelFor(n, [&](std::size_t i) {
        out[i] = static_cast<double>(i);
    });
    pool.reclaim();
    pool.parallelFor(n, [&](std::size_t i) {
        out[i] = static_cast<double>(i);
    }); // warm node pool for the measured loop

    const std::size_t before = g_allocs;
    std::size_t iters = 0;
    for (auto _ : state) {
        pool.parallelFor(n, [&](std::size_t i) {
            out[i] = static_cast<double>(i) * 0.5;
        });
        benchmark::DoNotOptimize(out.data());
        ++iters;
    }
    state.counters["allocs_per_item"] = benchmark::Counter(
        static_cast<double>(g_allocs - before) /
            static_cast<double>(n),
        benchmark::Counter::kAvgIterations);
    (void)iters;
}
BENCHMARK(BM_ParallelForPerItem);

/** Owner-side push/pop on the Chase-Lev deque (no contention): the
 *  worker-local fast path every pooled task takes. */
void
BM_DequePushPop(benchmark::State &state)
{
    exec::MonotonicArena arena;
    exec::StealDeque<int> deque(arena, 128);
    int item = 7;
    deque.push(&item);
    benchmark::DoNotOptimize(deque.pop());

    const std::size_t before = g_allocs;
    for (auto _ : state) {
        deque.push(&item);
        benchmark::DoNotOptimize(deque.pop());
    }
    reportAllocs(state, before);
}
BENCHMARK(BM_DequePushPop);

/** Arena bump allocation with recycled blocks: the post-reset steady
 *  state every sweep batch runs in. */
void
BM_ArenaAllocateReset(benchmark::State &state)
{
    exec::MonotonicArena arena;
    for (int i = 0; i < 512; ++i)
        benchmark::DoNotOptimize(arena.allocate(128));
    arena.reset(); // blocks retained: measured loop reuses them

    const std::size_t before = g_allocs;
    for (auto _ : state) {
        for (int i = 0; i < 512; ++i)
            benchmark::DoNotOptimize(arena.allocate(128));
        arena.reset();
    }
    reportAllocs(state, before);
}
BENCHMARK(BM_ArenaAllocateReset);

} // namespace

BENCHMARK_MAIN();
