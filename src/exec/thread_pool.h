#ifndef SMARTCONF_EXEC_THREAD_POOL_H_
#define SMARTCONF_EXEC_THREAD_POOL_H_

/**
 * @file
 * Work-stealing worker pool with pooled task handles.
 *
 * Experiment sweeps are embarrassingly parallel — every
 * (scenario, policy, seed) run owns its own simulator — but the old
 * locked-FIFO pool paid two heap allocations and a mutex round-trip per
 * task.  This pool keeps the same submission API and adds the
 * structure the sweep sizes ahead of us need:
 *
 *  - per-worker Chase-Lev deques (see steal_deque.h): a worker pushes
 *    follow-up work to its own deque lock-free and drains it LIFO;
 *    idle workers steal the oldest entries from victims round-robin;
 *  - a shared injector FIFO for external submitters, guarded by one
 *    mutex that also fronts the task-node free list — an external
 *    submit is one lock acquisition total;
 *  - pooled task nodes: the callable and a std::promise live in a
 *    fixed inline payload carved from a MonotonicArena and recycled
 *    through a free list, and the promise's shared state comes from a
 *    size-bucketed recycling pool — steady-state submission performs
 *    no global operator new at all, versus the
 *    make_shared<packaged_task> + std::function pair it replaces;
 *  - parallelFor(): bulk submission for index-addressed grids.  K
 *    chunk-runner tasks (K = worker count) claim indices from an
 *    atomic counter, so enqueueing an N-job sweep costs one lock
 *    acquisition and K pooled nodes, not N of each.  Results land at
 *    their own index — submission-order determinism by construction.
 *
 * Exceptions thrown by submitted callables propagate through the
 * returned future; parallelFor rethrows the lowest-index body
 * exception after every index has run.  The destructor drains all
 * outstanding work — including follow-up tasks submitted by running
 * tasks — before joining the workers.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/arena.h"
#include "exec/steal_deque.h"

namespace smartconf::exec {

namespace detail {

/**
 * Pooled task handle.  The type-erased payload (callable + promise, or
 * a parallelFor context pointer) lives inline; oversized payloads fall
 * back to a single heap box whose pointer occupies the first word.
 */
struct TaskNode
{
    static constexpr std::size_t kInlineBytes = 104;

    void (*invoke)(TaskNode *) noexcept = nullptr;
    TaskNode *next = nullptr; ///< injector FIFO / free-list link
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
};

/**
 * Process-wide recycler for promise shared states.  libstdc++'s
 * std::promise performs two heap allocations in its constructor (the
 * shared state and the result object); routing both through this pool
 * makes the steady-state submit() path free of global operator new.
 * Blocks are size-bucketed, recycled under one mutex, and immortal
 * (the backing singleton leaks deliberately: a future released from a
 * static destructor must still find the pool alive).
 */
class SharedStatePool
{
  public:
    static void *allocate(std::size_t bytes);
    static void deallocate(void *p, std::size_t bytes) noexcept;

    /** Largest pooled request; bigger ones fall through to new. */
    static constexpr std::size_t kMaxBytes = 512;
};

/** Minimal allocator over SharedStatePool for allocator-aware
 *  promises. */
template <typename T>
struct SharedStateAllocator
{
    using value_type = T;

    SharedStateAllocator() = default;
    template <typename U>
    SharedStateAllocator(const SharedStateAllocator<U> &) noexcept
    {}

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(
            SharedStatePool::allocate(n * sizeof(T)));
    }
    void deallocate(T *p, std::size_t n) noexcept
    {
        SharedStatePool::deallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const SharedStateAllocator<U> &) const noexcept
    {
        return true;
    }
    template <typename U>
    bool operator!=(const SharedStateAllocator<U> &) const noexcept
    {
        return false;
    }
};

/** Caller-stack state shared by one parallelFor's chunk runners. */
struct ParallelForCtx
{
    std::size_t n = 0;
    void *body = nullptr;
    void (*invoke_body)(void *, std::size_t) = nullptr;

    std::atomic<std::size_t> next{0}; ///< index claim counter
    std::size_t runners = 0;

    std::mutex mutex;
    std::condition_variable cv;
    std::size_t done = 0; ///< finished runners, guarded by mutex
    std::exception_ptr error;
    std::size_t error_index = static_cast<std::size_t>(-1);
};

} // namespace detail

/**
 * A fixed set of workers over per-worker steal deques plus a shared
 * injector queue.
 */
class ThreadPool
{
  public:
    struct Worker; ///< one shard: deque + arena (defined in the .cc)

    /** Spawn @p threads workers (at least one). */
    explicit ThreadPool(std::size_t threads);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /**
     * Enqueue @p fn for execution; the returned future yields its
     * result (or rethrows its exception).  Safe to call from any
     * thread; a pool worker pushes to its own deque (lock-free),
     * everyone else goes through the injector.
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        using Fd = std::decay_t<F>;
        std::promise<R> promise(std::allocator_arg,
                                detail::SharedStateAllocator<R>{});
        std::future<R> result = promise.get_future();
        detail::TaskNode *node = acquireNode();
        constructPayload<Fd, R>(node, std::forward<F>(fn),
                                std::move(promise));
        enqueue(node);
        return result;
    }

    /**
     * Run body(i) for every i in [0, n), spread across the workers.
     * The caller blocks until all indices have executed; it does not
     * execute bodies itself, so results land exactly where a serial
     * loop would put them.  If any body throws, the exception with the
     * lowest index is rethrown here — after every index has still
     * run.  Must not be called from a pool worker (the blocked caller
     * would occupy the slot its own work needs).
     */
    template <typename Body>
    void parallelFor(std::size_t n, Body &&body)
    {
        if (n == 0)
            return;
        detail::ParallelForCtx ctx;
        ctx.n = n;
        ctx.body = const_cast<void *>(
            static_cast<const void *>(std::addressof(body)));
        ctx.invoke_body = [](void *b, std::size_t i) {
            (*static_cast<std::remove_reference_t<Body> *>(b))(i);
        };
        runParallelFor(ctx);
    }

    /**
     * When the pool is idle, rewind the shared task-node arena's bump
     * pointer (dropping the free list with it) so cross-sweep reuse
     * recycles the same blocks.  No-op (returns false) while any task
     * is outstanding.
     */
    bool reclaim();

    /** Successful steals across all workers (monitoring). */
    std::uint64_t steals() const;

    /** Task-node arena growth events (allocation monitoring). */
    std::size_t nodeArenaBlocks() const;

    /**
     * Sensible worker count for this machine:
     * std::thread::hardware_concurrency(), or 1 when unknown.
     */
    static std::size_t defaultConcurrency();

  private:
    /** Inline payload: callable + promise executed on a worker. */
    template <typename Fd, typename R>
    struct Holder
    {
        Fd fn;
        std::promise<R> promise;
    };

    template <typename Fd, typename R>
    static void invokeInline(detail::TaskNode *node) noexcept
    {
        auto *h = std::launder(
            reinterpret_cast<Holder<Fd, R> *>(node->storage));
        runHolder(h);
        h->~Holder();
    }

    template <typename Fd, typename R>
    static void invokeBoxed(detail::TaskNode *node) noexcept
    {
        auto *h = *std::launder(reinterpret_cast<Holder<Fd, R> **>(
            node->storage));
        runHolder(h);
        delete h;
    }

    template <typename Fd, typename R>
    static void runHolder(Holder<Fd, R> *h) noexcept
    {
        try {
            if constexpr (std::is_void_v<R>) {
                h->fn();
                h->promise.set_value();
            } else {
                h->promise.set_value(h->fn());
            }
        } catch (...) {
            try {
                h->promise.set_exception(std::current_exception());
            } catch (...) {
                // promise already satisfied; nothing left to report
            }
        }
    }

    template <typename Fd, typename R>
    void constructPayload(detail::TaskNode *node, Fd &&fn,
                          std::promise<R> &&promise)
    {
        using H = Holder<std::decay_t<Fd>, R>;
        if constexpr (sizeof(H) <= detail::TaskNode::kInlineBytes &&
                      alignof(H) <= alignof(std::max_align_t)) {
            new (node->storage) H{std::forward<Fd>(fn),
                                  std::move(promise)};
            node->invoke = &invokeInline<std::decay_t<Fd>, R>;
        } else {
            auto *h =
                new H{std::forward<Fd>(fn), std::move(promise)};
            new (node->storage) (H *)(h);
            node->invoke = &invokeBoxed<std::decay_t<Fd>, R>;
        }
    }

    // Non-template internals (defined in thread_pool.cc).
    detail::TaskNode *acquireNode();
    void releaseNode(detail::TaskNode *node);
    void enqueue(detail::TaskNode *node);
    void runParallelFor(detail::ParallelForCtx &ctx);
    void notifySubmitted();
    void workerLoop(Worker &self);
    detail::TaskNode *findExternalWork(Worker &self);
    void runNode(detail::TaskNode *node);
    static void chunkRunnerInvoke(detail::TaskNode *node) noexcept;

    /** Injector lock: FIFO queue + node free list + shared arena. */
    std::mutex injector_mutex_;
    detail::TaskNode *injector_head_ = nullptr;
    detail::TaskNode *injector_tail_ = nullptr;
    detail::TaskNode *free_list_ = nullptr;
    MonotonicArena node_arena_;
    std::atomic<std::size_t> outstanding_{0}; ///< enqueued, not done

    /** Parking: epoch bumps on every submission; workers re-check
     *  queues after recording the epoch, so no wakeup is missed. */
    std::mutex park_mutex_;
    std::condition_variable park_cv_;
    std::uint64_t epoch_ = 0;
    bool stopping_ = false;

    std::vector<std::unique_ptr<Worker>> shards_;
    std::vector<std::thread> workers_;
};

} // namespace smartconf::exec

#endif // SMARTCONF_EXEC_THREAD_POOL_H_
