#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * Spans recorded by the benchmark around its own calls into the
 * program's layers.
 *
 * A span has a name ("<layer>.<what>"), start and end, the span that
 * caused it, the pass (closed-loop request) it belongs to, the run
 * within that pass, and the thread that recorded it.  Spans stay in
 * memory, in one buffer per recording thread, until the run ends.
 * A span's self time is its duration minus the part of it that its
 * child spans cover, on whatever thread those ran.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span
{
    std::string name;
    std::int64_t start_ns = 0; ///< since the tracer was created
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::int64_t pass = -1;
    std::int64_t run = -1;    ///< job index within the pass, -1 = none
    std::uint32_t thread = 0; ///< recording thread, in first-use order

    std::int64_t durationNs() const { return end_ns - start_ns; }
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    std::uint32_t newId() { return next_id_.fetch_add(1) + 1; }
    std::int64_t nowNs() const;

    /** Append @p s to the calling thread's buffer. */
    void record(Span s);

    /** Every span so far, ordered by start.  Call when no thread records. */
    std::vector<Span> collect() const;

  private:
    struct Buffer
    {
        std::uint32_t thread = 0;
        std::vector<Span> spans;
    };

    Buffer &localBuffer();

    const Clock::time_point epoch_;
    std::atomic<std::uint32_t> next_id_{0};
    mutable std::mutex mu_; ///< guards buffers_ (the list, not contents)
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** Records one span for its scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, std::string name, std::uint32_t parent,
               std::int64_t pass, std::int64_t run = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return span_.id; }

  private:
    Tracer &tracer_;
    Span span_;
};

/**
 * Coverage of one pass: the sum of self times of the pass's spans over
 * (root duration x kWorkers).  @p by_layer receives self time per layer
 * (the span name up to its first '.'), in ns.
 */
double passCoverage(const std::vector<Span> &pass_spans,
                    std::map<std::string, double> &by_layer);

/** Write @p spans as one JSON object per line. */
void writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
