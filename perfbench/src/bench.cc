#include "bench.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

constexpr std::size_t kCalibTableWords = std::size_t{1} << 17; // 1 MiB

/** Per-worker tables, allocated once so calibrate() never allocates. */
std::vector<std::vector<std::uint64_t>> g_calib_tables;

/**
 * One worker's share: xorshift draws, Box-Muller gaussians, a small
 * sort and read-modify-writes at random slots of a 1 MiB table.
 */
double
calibrationShare(std::size_t worker)
{
    std::vector<std::uint64_t> &table = g_calib_tables[worker];
    std::uint64_t s = (worker + 1) * 0x9e3779b97f4a7c15ULL + 1;
    const auto next = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    };
    double small[64];
    double acc = 0.0;
    for (int r = 0; r < 6000; ++r) {
        for (double &x : small) {
            const double u1 = static_cast<double>(next() >> 11) * 0x1.0p-53;
            const double u2 = static_cast<double>(next() >> 11) * 0x1.0p-53;
            x = std::sqrt(-2.0 * std::log(u1 + 1e-300)) *
                std::cos(6.283185307179586 * u2);
        }
        std::sort(small, small + 64);
        acc += small[32];
        for (int k = 0; k < 64; ++k) {
            std::uint64_t &slot = table[next() & (kCalibTableWords - 1)];
            acc += static_cast<double>(slot & 1);
            ++slot;
        }
    }
    return acc;
}

volatile double g_calib_sink = 0.0;

Clock::time_point g_setup_start;
double g_setup_calib = 0.0;

} // namespace

double
calibrate()
{
    if (g_calib_tables.empty())
        g_calib_tables.assign(kWorkers,
                              std::vector<std::uint64_t>(kCalibTableWords, 1));
    std::vector<double> out(kWorkers);
    const auto t0 = Clock::now();
    {
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < kWorkers; ++i)
            threads.emplace_back(
                [&out, i] { out[i] = calibrationShare(i); });
        for (std::thread &t : threads)
            t.join();
    }
    const double s = secondsSince(t0);
    for (double v : out)
        g_calib_sink = g_calib_sink + v;
    return s;
}

void
startSetup()
{
    g_setup_calib = calibrate();
    g_setup_start = Clock::now();
}

double
setupSeconds()
{
    const double wall = secondsSince(g_setup_start);
    return wall * kCalibRefS / (0.5 * (g_setup_calib + calibrate()));
}

double
Timings::toReference() const
{
    return kCalibRefS / median(calib_s);
}

double
peakRssMbDuring(const std::function<void()> &f)
{
    malloc_trim(0);
    std::atomic<bool> done{false};
    long peak_pages = 0; // written by the sampler, read after join
    std::thread sampler([&done, &peak_pages] {
        for (;;) {
            const bool last = done.load();
            long size = 0, resident = 0;
            std::ifstream("/proc/self/statm") >> size >> resident;
            peak_pages = std::max(peak_pages, resident);
            if (last)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    try {
        f();
    } catch (...) {
        done = true;
        sampler.join();
        throw;
    }
    done = true;
    sampler.join();
    return static_cast<double>(peak_pages) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void
Digest::f64(double d)
{
    word(std::bit_cast<std::uint64_t>(d));
}

void
Digest::str(const std::string &s)
{
    word(s.size());
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        w = (w << 8) | static_cast<unsigned char>(s[i]);
        if (i % 8 == 7) {
            word(w);
            w = 0;
        }
    }
    word(w);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

void
fail(Report &rep, std::uint64_t n, const std::string &why)
{
    if (n == 0)
        return;
    rep.failed += n;
    std::fprintf(stderr, "perfbench: FAILED (%llu): %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
}

namespace {

/** Per-layer metric names whose last part is a time in ms, us or ns. */
bool
isTime(const std::string &name)
{
    const std::string last = name.substr(name.rfind('.') + 1);
    for (const std::string u : {"ms", "us", "ns"})
        if (last == u || last.rfind(u + "_", 0) == 0 ||
            last.find("_" + u) != std::string::npos)
            return true;
    return false;
}

} // namespace

void
finishTrace(const Timings &t, Report &rep)
{
    for (auto &[name, value] : rep.metrics)
        if (isTime(name))
            value *= t.toReference();
    rep.metrics["trace.overhead_frac"] =
        median(t.traced) / median(t.untraced) - 1.0;
    rep.metrics["host.calib_ms"] = median(t.calib_s) * 1e3;
}

void
explainCoverage(const Report &rep,
                const std::map<std::string, double> &layer_ns,
                const char *uncovered_owner)
{
    double total = 0.0;
    for (const auto &[layer, ns] : layer_ns)
        total += ns;
    for (const auto &[layer, ns] : layer_ns)
        std::fprintf(stderr, "perfbench: self time %-10s %6.1f%%\n",
                     layer.c_str(), total > 0 ? 100.0 * ns / total : 0.0);
    const double c = rep.metrics.at("trace.coverage");
    if (c < 0.95)
        std::fprintf(stderr,
                     "perfbench: trace.coverage %.3f: the uncovered %.1f%% "
                     "of worker time is %s\n",
                     c, 100.0 * (1.0 - c), uncovered_owner);
}

} // namespace perfbench
