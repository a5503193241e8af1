#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace smartconf::exec {

using detail::ParallelForCtx;
using detail::TaskNode;

/**
 * One worker shard: the thread's deque plus the arena its buffers are
 * carved from.  The shard outlives the thread (the pool owns it), so a
 * thief can keep reading a victim's retired buffers during shutdown.
 */
struct ThreadPool::Worker
{
    explicit Worker(ThreadPool *p, std::size_t i)
        : pool(p), index(i), deque(arena, /*initial=*/128)
    {}

    ThreadPool *pool;
    std::size_t index;
    MonotonicArena arena; ///< deque buffers; owner-thread allocations
    StealDeque<TaskNode> deque;
    std::atomic<std::uint64_t> steals{0};
};

namespace {

/** The shard this thread drives, when it is a pool worker. */
thread_local ThreadPool::Worker *tl_worker = nullptr;

} // namespace

namespace detail {

namespace {

/** Size-bucketed free lists backing SharedStatePool.  Leaked on
 *  purpose: futures released from static destructors must still be
 *  able to return their shared state. */
struct StatePoolImpl
{
    static constexpr std::size_t kGranule = 16;
    static constexpr std::size_t kClasses =
        SharedStatePool::kMaxBytes / kGranule;

    std::mutex mutex;
    void *free[kClasses] = {};
    MonotonicArena arena; ///< never reset; blocks live forever

    static StatePoolImpl &instance()
    {
        static StatePoolImpl *impl = new StatePoolImpl;
        return *impl;
    }
};

} // namespace

void *
SharedStatePool::allocate(std::size_t bytes)
{
    if (bytes == 0 || bytes > kMaxBytes)
        return ::operator new(bytes);
    const std::size_t cls =
        (bytes + StatePoolImpl::kGranule - 1) /
            StatePoolImpl::kGranule -
        1;
    StatePoolImpl &impl = StatePoolImpl::instance();
    std::lock_guard<std::mutex> lock(impl.mutex);
    if (void *p = impl.free[cls]) {
        impl.free[cls] = *static_cast<void **>(p);
        return p;
    }
    return impl.arena.allocate((cls + 1) * StatePoolImpl::kGranule,
                               alignof(std::max_align_t));
}

void
SharedStatePool::deallocate(void *p, std::size_t bytes) noexcept
{
    if (p == nullptr)
        return;
    if (bytes == 0 || bytes > kMaxBytes) {
        ::operator delete(p);
        return;
    }
    const std::size_t cls =
        (bytes + StatePoolImpl::kGranule - 1) /
            StatePoolImpl::kGranule -
        1;
    StatePoolImpl &impl = StatePoolImpl::instance();
    std::lock_guard<std::mutex> lock(impl.mutex);
    *static_cast<void **>(p) = impl.free[cls];
    impl.free[cls] = p;
}

} // namespace detail

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t n = std::max<std::size_t>(threads, 1);
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        shards_.push_back(std::make_unique<Worker>(this, i));
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back(
            [this, i] { workerLoop(*shards_[i]); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(park_mutex_);
        stopping_ = true;
        ++epoch_;
    }
    park_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    // Nodes and deque buffers die with their arenas; payloads were
    // destroyed when each task ran (the drain guarantees they all did).
}

TaskNode *
ThreadPool::acquireNode()
{
    std::lock_guard<std::mutex> lock(injector_mutex_);
    if (free_list_ != nullptr) {
        TaskNode *node = free_list_;
        free_list_ = node->next;
        node->next = nullptr;
        return node;
    }
    void *mem = node_arena_.allocate(sizeof(TaskNode), alignof(TaskNode));
    return new (mem) TaskNode();
}

void
ThreadPool::releaseNode(TaskNode *node)
{
    node->invoke = nullptr;
    {
        std::lock_guard<std::mutex> lock(injector_mutex_);
        node->next = free_list_;
        free_list_ = node;
    }
    outstanding_.fetch_sub(1, std::memory_order_release);
}

void
ThreadPool::notifySubmitted()
{
    {
        std::lock_guard<std::mutex> lock(park_mutex_);
        ++epoch_;
    }
    park_cv_.notify_one();
}

void
ThreadPool::enqueue(TaskNode *node)
{
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    Worker *self = tl_worker;
    if (self != nullptr && self->pool == this) {
        // Worker-local fast path: lock-free push to our own deque.
        self->deque.push(node);
    } else {
        std::lock_guard<std::mutex> lock(injector_mutex_);
        node->next = nullptr;
        if (injector_tail_ != nullptr)
            injector_tail_->next = node;
        else
            injector_head_ = node;
        injector_tail_ = node;
    }
    notifySubmitted();
}

bool
ThreadPool::reclaim()
{
    std::lock_guard<std::mutex> lock(injector_mutex_);
    if (outstanding_.load(std::memory_order_acquire) != 0)
        return false;
    free_list_ = nullptr;
    node_arena_.reset();
    return true;
}

std::uint64_t
ThreadPool::steals() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->steals.load(std::memory_order_relaxed);
    return total;
}

std::size_t
ThreadPool::nodeArenaBlocks() const
{
    return node_arena_.blocksAllocated();
}

void
ThreadPool::runNode(TaskNode *node)
{
    node->invoke(node); // runs the payload and destroys it
    releaseNode(node);
}

/**
 * Injector pop, then a full round-robin steal scan starting after our
 * own shard.  Returns nullptr only after seeing every source empty.
 */
TaskNode *
ThreadPool::findExternalWork(Worker &self)
{
    {
        std::lock_guard<std::mutex> lock(injector_mutex_);
        if (injector_head_ != nullptr) {
            TaskNode *node = injector_head_;
            injector_head_ = node->next;
            if (injector_head_ == nullptr)
                injector_tail_ = nullptr;
            node->next = nullptr;
            return node;
        }
    }
    const std::size_t n = shards_.size();
    for (std::size_t hop = 1; hop < n; ++hop) {
        Worker &victim = *shards_[(self.index + hop) % n];
        if (TaskNode *node = victim.deque.steal()) {
            self.steals.fetch_add(1, std::memory_order_relaxed);
            return node;
        }
    }
    return nullptr;
}

void
ThreadPool::workerLoop(Worker &self)
{
    tl_worker = &self;
    for (;;) {
        if (TaskNode *node = self.deque.pop()) {
            runNode(node);
            continue;
        }
        if (TaskNode *node = findExternalWork(self)) {
            runNode(node);
            continue;
        }
        // Nothing visible.  Record the epoch, re-check (a submission
        // racing the scan bumps the epoch and fails the wait
        // predicate), then park.
        std::unique_lock<std::mutex> lock(park_mutex_);
        if (stopping_) {
            lock.unlock();
            // Drain straggler work published before stopping_ was
            // set; our own deque is empty (checked above) and only we
            // push to it.
            if (TaskNode *node = findExternalWork(self)) {
                runNode(node);
                continue;
            }
            return;
        }
        const std::uint64_t epoch = epoch_;
        lock.unlock();
        if (TaskNode *node = findExternalWork(self)) {
            runNode(node);
            continue;
        }
        lock.lock();
        park_cv_.wait(lock, [&] {
            return epoch_ != epoch || stopping_;
        });
    }
}

void
ThreadPool::chunkRunnerInvoke(TaskNode *node) noexcept
{
    auto *ctx = *std::launder(
        reinterpret_cast<ParallelForCtx **>(node->storage));
    for (;;) {
        const std::size_t i =
            ctx->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= ctx->n)
            break;
        try {
            ctx->invoke_body(ctx->body, i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(ctx->mutex);
            if (i < ctx->error_index) {
                ctx->error = std::current_exception();
                ctx->error_index = i;
            }
        }
    }
    std::lock_guard<std::mutex> lock(ctx->mutex);
    if (++ctx->done == ctx->runners)
        ctx->cv.notify_all(); // under the lock: ctx dies with the caller
}

void
ThreadPool::runParallelFor(ParallelForCtx &ctx)
{
    const std::size_t runners = std::min(workers_.size(), ctx.n);
    ctx.runners = runners;

    // Bulk enqueue: one injector lock for all K chunk runners (and
    // their node acquisitions) instead of K round-trips.
    {
        std::lock_guard<std::mutex> lock(injector_mutex_);
        for (std::size_t i = 0; i < runners; ++i) {
            TaskNode *node;
            if (free_list_ != nullptr) {
                node = free_list_;
                free_list_ = node->next;
            } else {
                node = new (node_arena_.allocate(
                    sizeof(TaskNode), alignof(TaskNode))) TaskNode();
            }
            new (node->storage) (ParallelForCtx *)(&ctx);
            node->invoke = &chunkRunnerInvoke;
            node->next = nullptr;
            if (injector_tail_ != nullptr)
                injector_tail_->next = node;
            else
                injector_head_ = node;
            injector_tail_ = node;
        }
        outstanding_.fetch_add(runners, std::memory_order_relaxed);
    }
    {
        std::lock_guard<std::mutex> lock(park_mutex_);
        ++epoch_;
    }
    park_cv_.notify_all();

    std::unique_lock<std::mutex> lock(ctx.mutex);
    ctx.cv.wait(lock, [&] { return ctx.done == ctx.runners; });
    lock.unlock();
    if (ctx.error)
        std::rethrow_exception(ctx.error);
}

std::size_t
ThreadPool::defaultConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

} // namespace smartconf::exec
