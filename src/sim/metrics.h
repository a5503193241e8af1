#ifndef SMARTCONF_SIM_METRICS_H_
#define SMARTCONF_SIM_METRICS_H_

/**
 * @file
 * Measurement recording for experiments.
 *
 * TimeSeries captures (tick, value) curves — the raw material for the
 * paper's Figures 6-8 — and Histogram summarizes latency distributions
 * (mean, percentiles, max) for throughput/latency trade-off reporting.
 *
 * Both are streaming-friendly: callers that know the run horizon can
 * reserve() capacity up front so the per-tick record() path never
 * reallocates, and Histogram::percentile caches its sorted state so
 * repeated queries between mutations cost O(1) instead of a fresh
 * copy-and-sort each call.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace smartconf::sim {

/** A named (tick, value) curve. */
class TimeSeries
{
  public:
    struct Point
    {
        Tick tick;
        double value;
    };

    explicit TimeSeries(std::string name = "") : name_(std::move(name)) {}

    /** Pre-size for @p n points (e.g. the scenario horizon in ticks). */
    void reserve(std::size_t n) { points_.reserve(n); }

    void record(Tick tick, double value)
    {
        points_.push_back({tick, value});
    }

    /** Replace the whole curve (bulk deserialization). */
    void assign(std::vector<Point> points)
    {
        points_ = std::move(points);
    }

    const std::string &name() const { return name_; }
    const std::vector<Point> &points() const { return points_; }
    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }

    /** Largest recorded value; 0 when empty. */
    double max() const;

    /** Last recorded value; 0 when empty. */
    double last() const;

    /** Mean of recorded values; 0 when empty. */
    double mean() const;

    /**
     * First tick at which the value exceeded @p threshold, or -1 when it
     * never did (including on an empty series).  Used to report "OOM at
     * t = 36 s" style results.
     */
    Tick firstAbove(double threshold) const;

    /**
     * Down-sample to at most @p buckets points (taking the max within
     * each bucket) — keeps printed figure data readable.
     *
     * Edge cases: 0 buckets yields an empty vector (the contract is
     * "at most @p buckets points"); @p buckets >= size() returns the
     * series unchanged; a single point survives as itself.
     */
    std::vector<Point> downsampleMax(std::size_t buckets) const;

    /** Render as CSV lines "tick,value" (with a header). */
    std::string toCsv(const TickConverter &conv) const;

  private:
    std::string name_;
    std::vector<Point> points_;
};

/**
 * Latency/size distribution summary.
 *
 * Count, sum, min and max are maintained *streaming*, at record time,
 * through the kernel layer: recordBatch() reduces the incoming
 * array with the kernels' pinned lane-then-combine accumulation order
 * (sim/kernels.h) and folds the partial into the running aggregates,
 * so mean()/min()/max() are O(1) queries instead of full scans.  The
 * scalar record() path uses the same per-element rules, which makes
 * every aggregate independent of how the compiler vectorizes — but the
 * floating-point *sum* does depend on how observations are grouped
 * into batches (a batch is reduced lane-wise before joining the
 * running sum).  Call shapes are deterministic in this codebase, so
 * results stay reproducible; only values_ is call-shape-independent.
 */
class Histogram
{
  public:
    /** Pre-size for @p n observations. */
    void reserve(std::size_t n) { values_.reserve(n); }

    void record(double value)
    {
        values_.push_back(value);
        sum_ += value;
        // minpd/maxpd(x, acc) rules — NaN keeps the accumulator —
        // matching the kernels' reduceMinMax element rule exactly.
        min_ = value < min_ ? value : min_;
        max_ = value > max_ ? value : max_;
        scratch_fresh_ = false;
    }

    /**
     * Record @p n identical observations at once.  Batch entry point
     * for callers that serve work in same-valued runs (e.g. the
     * namenode draining a same-tick write backlog): one bulk insert
     * instead of @p n push_backs, with the same observable sequence.
     * The running sum advances by value * n (the definition for this
     * call shape, not n serial additions).
     */
    void record(double value, std::size_t n)
    {
        if (n == 0)
            return;
        values_.insert(values_.end(), n, value);
        sum_ += value * static_cast<double>(n);
        min_ = value < min_ ? value : min_;
        max_ = value > max_ ? value : max_;
        scratch_fresh_ = false;
    }

    /**
     * Append @p n observations from a contiguous array.  The batch
     * form of the per-event record() loop: one range insert, one
     * lane-order reduction for the streaming aggregates, and a single
     * sorted-flag invalidation.  The recorded *sequence* matches @p n
     * scalar calls; the running sum receives the batch's lane-combined
     * partial (see the class comment).
     */
    void recordBatch(const double *values, std::size_t n);

    std::size_t count() const { return values_.size(); }

    /** Mean of recorded values (streaming sum / count); 0 when empty. */
    double mean() const
    {
        return values_.empty()
                   ? 0.0
                   : sum_ / static_cast<double>(values_.size());
    }

    /**
     * Largest recorded value, never below 0 (the pre-streaming fold
     * started at 0.0 and this keeps that floor); NaN observations are
     * ignored; 0 when empty.
     */
    double max() const
    {
        return !values_.empty() && max_ > 0.0 ? max_ : 0.0;
    }

    /**
     * Smallest recorded value (NaN observations ignored); 0 when
     * empty.  A histogram holding only NaN reports the +inf identity.
     */
    double min() const { return values_.empty() ? 0.0 : min_; }

    /** Running sum of observations (lane-order; see class comment). */
    double sum() const { return values_.empty() ? 0.0 : sum_; }

    /**
     * Nearest-rank percentile in (0, 100]; 0 when empty.
     *
     * Sorted-state caching: the first query after a mutation answers
     * via nth_element (O(n), no full sort); a second query sorts the
     * scratch copy once, after which further queries are O(1) lookups
     * until the next record().  The recording-order values() view is
     * never disturbed.
     */
    double percentile(double p) const;

    /** Raw observations in recording order (for streaming consumers). */
    const std::vector<double> &values() const { return values_; }

    void reset()
    {
        values_.clear();
        sum_ = 0.0;
        min_ = kInf;
        max_ = -kInf;
        scratch_fresh_ = false;
    }

  private:
    static constexpr double kInf = __builtin_inf();

    std::vector<double> values_;

    /** Streaming aggregates (see class comment for ordering rules). */
    double sum_ = 0.0;
    double min_ = kInf;
    double max_ = -kInf;

    /** Query-side cache: a reusable copy of values_ for (partial)
     *  sorting, so percentile() stops copy-allocating per call. */
    mutable std::vector<double> scratch_;
    mutable bool scratch_fresh_ = false;  ///< scratch_ mirrors values_
    mutable bool scratch_sorted_ = false; ///< scratch_ is fully sorted
    mutable std::uint32_t queries_since_mutation_ = 0;
};

} // namespace smartconf::sim

#endif // SMARTCONF_SIM_METRICS_H_
