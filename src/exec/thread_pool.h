#ifndef SMARTCONF_EXEC_THREAD_POOL_H_
#define SMARTCONF_EXEC_THREAD_POOL_H_

/**
 * @file
 * Fixed worker pool whose only job is parallelFor.
 *
 * Experiment sweeps and fleet epochs are index-addressed grids: every
 * (scenario, policy, seed) run or tenant group owns its own state, so
 * the whole workload is "run body(i) for every i".  K persistent
 * workers park on one condition variable.  A parallelFor call
 * publishes {n, body, next index} under a generation counter and wakes
 * them; each worker claims indices from the atomic counter until the
 * grid is exhausted, and the last worker to finish wakes the caller.
 * Results land at their own index, so the output is the one a serial
 * loop produces regardless of which worker ran what.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace smartconf::exec {

class ThreadPool
{
  public:
    /** Spawn @p threads workers (at least one). */
    explicit ThreadPool(std::size_t threads);

    /** Joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /**
     * Run body(i) for every i in [0, n), spread across the workers.
     * The caller blocks until all indices have executed; it does not
     * execute bodies itself.  If any body throws, the exception with
     * the lowest index is rethrown here, after every index has still
     * run.  Concurrent callers are serialised.  Must not be called
     * from a pool worker: the worker would wait on a call that needs
     * it to finish.
     */
    template <typename Body>
    void parallelFor(std::size_t n, Body &&body)
    {
        if (n == 0)
            return;
        run(n,
            [](void *b, std::size_t i) {
                (*static_cast<std::remove_reference_t<Body> *>(b))(i);
            },
            const_cast<void *>(
                static_cast<const void *>(std::addressof(body))));
    }

    /**
     * Sensible worker count for this machine:
     * std::thread::hardware_concurrency(), or 1 when unknown.
     */
    static std::size_t defaultConcurrency();

  private:
    using Invoke = void (*)(void *, std::size_t);

    void run(std::size_t n, Invoke invoke, void *body);
    void workerLoop();
    void stop();

    std::mutex call_mutex_; ///< one parallelFor at a time

    /** Guards generation_ through error_index_, except next_. */
    std::mutex mutex_;
    std::condition_variable work_cv_; ///< workers park here
    std::condition_variable done_cv_; ///< the caller parks here
    std::uint64_t generation_ = 0;    ///< bumped once per call
    bool stopping_ = false;

    // The call in flight.
    std::size_t n_ = 0;
    Invoke invoke_ = nullptr;
    void *body_ = nullptr;
    std::atomic<std::size_t> next_{0}; ///< index claim counter
    std::size_t active_ = 0;           ///< workers still in the call
    std::exception_ptr error_;
    std::size_t error_index_ = 0;

    std::vector<std::thread> workers_;
};

} // namespace smartconf::exec

#endif // SMARTCONF_EXEC_THREAD_POOL_H_
