#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/**
 * @file
 * Shared pieces of the perfbench binary: options, the per-run report,
 * host-speed calibration, the closed loop, the payload digest and small
 * statistics helpers.
 *
 * Every workload is a closed loop: one client thread submits a pass,
 * waits for it, checks its output, and submits the next, until the
 * measurement window ends.  The program runs each pass on kWorkers
 * worker threads.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Worker threads per pass: half of the 4-core host, which is shared. */
inline constexpr std::size_t kWorkers = 2;

/** Fewest passes a window may hold, however long a pass takes. */
inline constexpr std::size_t kMinPasses = 3;

/** Wall time between host-speed calibrations inside a window. */
inline constexpr double kCalibEveryS = 0.25;

/** Calibration time that defines a reference second (see calibrate). */
inline constexpr double kCalibRefS = 0.0175;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    std::string work_dir;  ///< scratch space, owned by this process
    std::string span_file; ///< where the traced run writes its spans
};

/** What one invocation measured and checked. */
struct Report
{
    double setup_s = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digest of the first pass's output (timings excluded). */
    std::uint64_t payload = 0;
    std::map<std::string, double> metrics;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Wall seconds of a fixed, allocation-free compute kernel (benchmark
 * code, not the program's) on kWorkers threads.  The host is a shared
 * VM whose speed moves by 2x and more within the hour, for this kernel
 * and the program alike; a run multiplies its times by kCalibRefS /
 * (median calibration) so runs made in different host states compare.
 * A reference second is a wall second on a host where calibrate()
 * returns kCalibRefS.
 */
double calibrate();

/** Calibrate, then start the set-up clock; call first thing in main(). */
void startSetup();

/** Set-up time since startSetup(), in reference seconds. */
double setupSeconds();

/**
 * Peak resident set of this process while @p f runs, MiB, sampled every
 * millisecond from /proc/self/statm.  Freed heap memory is returned to
 * the OS first, so the peak does not depend on what earlier work left
 * in the allocator.
 */
double peakRssMbDuring(const std::function<void()> &f);

double median(std::vector<double> v);

/** Pass times of one window, traced and untraced, wall seconds. */
struct Timings
{
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<double> calib_s; ///< calibrations during the window
    double rss_mb = 0.0; ///< peak resident set of one pass (untraced runs)

    /** Factor from wall to reference seconds for this window. */
    double toReference() const;
};

/**
 * Run passes until @p opts.seconds have elapsed and at least kMinPasses
 * (per kind, in a traced run) are done.  @p pass(traced, k) runs pass k
 * and returns its wall seconds.  A traced run alternates untraced and
 * traced passes so both see the same host conditions.
 *
 * An untraced run then runs one more pass, untimed, for its peak memory:
 * the timed passes keep whatever the allocator retained from earlier
 * ones, which makes their peaks depend on history.
 */
template <typename PassFn>
Timings
closedLoop(const Options &opts, PassFn &&pass)
{
    Timings t;
    const auto t0 = Clock::now();
    t.calib_s.push_back(calibrate());
    auto last_calib = Clock::now();
    std::int64_t k = 0;
    for (;; ++k) {
        const bool traced = opts.trace && k % 2 == 1;
        (traced ? t.traced : t.untraced).push_back(pass(traced, k));
        if (secondsSince(last_calib) >= kCalibEveryS) {
            t.calib_s.push_back(calibrate());
            last_calib = Clock::now();
        }
        if (secondsSince(t0) >= opts.seconds &&
            t.untraced.size() >= kMinPasses &&
            (!opts.trace || t.traced.size() >= kMinPasses))
            break;
    }
    std::fprintf(stderr,
                 "perfbench: %zu passes, median %.3f ms wall; median "
                 "calibration %.3f ms of %zu\n",
                 t.untraced.size() + t.traced.size(),
                 median(t.untraced) * 1e3, median(t.calib_s) * 1e3,
                 t.calib_s.size());
    if (!opts.trace)
        t.rss_mb = peakRssMbDuring([&] { pass(false, k + 1); });
    return t;
}

/**
 * Order-sensitive 64-bit digest over words (FNV-1a style multiply with
 * an extra fold so high-bit differences reach the low bits).
 */
class Digest
{
  public:
    void word(std::uint64_t w)
    {
        h_ = (h_ ^ w) * 0x100000001b3ULL;
        h_ ^= h_ >> 29;
    }
    void f64(double d);
    void str(const std::string &s);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Nearest-rank percentile, @p q in [0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> v, double q);

/** Remove @p path recursively; missing is fine. */
void removeTree(const std::string &path);

/** Count @p n failed operations and say why on stderr. */
void fail(Report &rep, std::uint64_t n, const std::string &why);

/**
 * Close a traced run: trace.overhead_frac (traced / untraced median pass
 * time - 1), host.calib_ms, and every per-layer time metric converted
 * from wall to reference units with @p t's factor.
 */
void finishTrace(const Timings &t, Report &rep);

/** Print the per-layer self-time split and explain short coverage. */
void explainCoverage(const Report &rep,
                     const std::map<std::string, double> &layer_ns,
                     const char *uncovered_owner);

int runSweepCold(const Options &opts, Report &rep);
int runReplayWarm(const Options &opts, Report &rep);
int runFleetWorkload(const Options &opts, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
