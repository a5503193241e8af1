#include "exec/thread_pool.h"

#include <algorithm>

namespace smartconf::exec {

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t n = std::max<std::size_t>(threads, 1);
    workers_.reserve(n);
    try {
        for (std::size_t i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        stop(); // join the workers that did start
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    stop();
}

void
ThreadPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::run(std::size_t n, Invoke invoke, void *body)
{
    std::lock_guard<std::mutex> call(call_mutex_);
    std::unique_lock<std::mutex> lock(mutex_);
    n_ = n;
    invoke_ = invoke;
    body_ = body;
    next_.store(0, std::memory_order_relaxed);
    active_ = workers_.size();
    error_ = nullptr;
    error_index_ = n;
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [&] { return active_ == 0; });
    std::exception_ptr error = std::move(error_);
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock,
                      [&] { return stopping_ || generation_ != seen; });
        if (stopping_)
            return;
        // The caller waits for every worker before it publishes the
        // next call, so each worker sees each generation exactly once
        // and the fields below stay fixed until this worker reports.
        seen = generation_;
        const std::size_t n = n_;
        const Invoke invoke = invoke_;
        void *const body = body_;
        lock.unlock();
        for (;;) {
            const std::size_t i =
                next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                invoke(body, i);
            } catch (...) {
                std::lock_guard<std::mutex> guard(mutex_);
                if (i < error_index_) {
                    error_ = std::current_exception();
                    error_index_ = i;
                }
            }
        }
        lock.lock();
        if (--active_ == 0)
            done_cv_.notify_one();
    }
}

std::size_t
ThreadPool::defaultConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

} // namespace smartconf::exec
