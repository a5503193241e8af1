/**
 * @file
 * The two evaluation-sweep workloads.
 *
 * sweep-cold: the paper's evaluation grid (six case studies x
 * {SmartConf, Static-Patch, Static-Buggy} x kSeeds seeds) through
 * SweepRunner::run into a fresh, empty disk store each pass.  Bound by
 * simulation; the store only receives writes.
 *
 * replay-warm: the same run keys read back from a store that setup
 * filled, each pass with a fresh SweepRunner + DiskRunCache (what a
 * second process sees) and one index-only range query.  Bound by
 * run-cache lookup, store reads and result parsing; simulates nothing.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "core/controller.h"
#include "exec/disk_cache.h"
#include "exec/sweep.h"
#include "scenarios/scenario.h"
#include "store/query.h"
#include "trace.h"
#include "workload/dfsio.h"
#include "workload/ycsb.h"

namespace perfbench {

namespace {

using smartconf::exec::DiskRunCache;
using smartconf::exec::RunCache;
using smartconf::exec::SweepJob;
using smartconf::exec::SweepOptions;
using smartconf::exec::SweepRunner;
using smartconf::scenarios::Policy;
using smartconf::scenarios::ScenarioResult;

/** Seeds per pass: 6 x 3 x 60 = 1080 runs, ~1.3 s at two workers. */
constexpr std::uint64_t kSeeds = 60;

/** The paper's six case studies, in Table 6 order. */
const char *const kScenarioIds[] = {"CA6059", "HB2149", "HB3813",
                                    "HB6728", "HD4995", "MR2820"};
constexpr int kPolicies = 3; ///< Smart, Static-Patch, Static-Buggy

const char *
substrateOf(const std::string &id)
{
    if (id == "HD4995")
        return "dfs";
    if (id == "MR2820")
        return "mapreduce";
    return "kvstore";
}

/** Counts (and, when traced, spans) every SweepJob::fn that runs. */
struct RunProbe
{
    std::atomic<std::uint64_t> simulated{0};
    std::atomic<std::uint64_t> ops{0};
    Tracer *tracer = nullptr; ///< null = untraced pass
    std::uint32_t parent = 0; ///< exec.run span of the current pass
    std::int64_t pass = -1;
};

struct Grid
{
    std::vector<SweepJob> jobs;
    std::vector<std::string> ids; ///< scenario id per job
    std::vector<int> policy;      ///< 0 Smart, 1 Static-Patch, 2 Buggy
    std::size_t distinct = 0;     ///< distinct cache keys
    std::uint64_t first_seed = 0;
    std::uint64_t last_seed = 0;
};

Grid
makeGrid(std::uint64_t first_seed, std::uint64_t n_seeds, RunProbe &probe)
{
    Grid g;
    g.first_seed = first_seed;
    g.last_seed = first_seed + n_seeds - 1;
    std::set<std::string> keys;
    for (const char *id : kScenarioIds) {
        const auto scenario = smartconf::scenarios::makeScenario(id);
        if (!scenario)
            throw std::runtime_error(std::string("no scenario ") + id);
        const auto &info = scenario->info();
        const Policy policies[kPolicies] = {
            Policy::smart(),
            Policy::makeStatic(info.patch_default),
            Policy::makeStatic(info.buggy_default),
        };
        for (int p = 0; p < kPolicies; ++p) {
            const std::string name = std::string("scenarios.") + id +
                                     (p == 0 ? ".smart" : ".static");
            for (std::uint64_t s = 0; s < n_seeds; ++s) {
                SweepJob job =
                    SweepJob::forScenario(id, policies[p], first_seed + s);
                const std::int64_t run =
                    static_cast<std::int64_t>(g.jobs.size());
                job.fn = [inner = std::move(job.fn), &probe, name, run] {
                    std::optional<ScopedSpan> span;
                    if (probe.tracer)
                        span.emplace(*probe.tracer, name, probe.parent,
                                     probe.pass, run);
                    ScenarioResult r = inner();
                    probe.simulated.fetch_add(1);
                    probe.ops.fetch_add(r.ops_simulated);
                    return r;
                };
                keys.insert(job.cache_key);
                g.jobs.push_back(std::move(job));
                g.ids.push_back(id);
                g.policy.push_back(p);
            }
        }
    }
    g.distinct = keys.size();
    return g;
}

void
digestSeries(Digest &d, const smartconf::sim::TimeSeries &ts)
{
    d.word(ts.size());
    for (const auto &pt : ts.points()) {
        d.word(static_cast<std::uint64_t>(pt.tick));
        d.f64(pt.value);
    }
}

/** Digest of everything a run reports except timings. */
std::uint64_t
resultDigest(const ScenarioResult &r)
{
    Digest d;
    d.str(r.scenario_id);
    d.str(r.policy_label);
    d.word(r.violated);
    d.f64(r.violation_time_s);
    d.f64(r.worst_goal_metric);
    d.f64(r.goal_value);
    d.f64(r.tradeoff);
    d.f64(r.raw_tradeoff);
    d.f64(r.mean_conf);
    d.word(r.ops_simulated);
    d.word(r.faults_injected);
    digestSeries(d, r.perf_series);
    digestSeries(d, r.conf_series);
    digestSeries(d, r.tradeoff_series);
    return d.value();
}

std::vector<std::uint64_t>
digests(const std::vector<ScenarioResult> &results)
{
    std::vector<std::uint64_t> out;
    out.reserve(results.size());
    for (const auto &r : results)
        out.push_back(resultDigest(r));
    return out;
}

/** The payload: every run's key and result digest, in job order. */
std::uint64_t
payloadDigest(const Grid &g, const std::vector<std::uint64_t> &ds)
{
    Digest d;
    for (std::size_t i = 0; i < ds.size(); ++i) {
        d.str(g.jobs[i].cache_key);
        d.word(ds[i]);
    }
    return d.value();
}

std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

struct Pass
{
    double wall_s = 0.0;
    std::vector<ScenarioResult> results;
    RunCache::Stats cache;
    smartconf::store::StoreStats io;
    std::size_t query_rows = 0;
};

/** One closed-loop request: evaluate the grid from scratch. */
Pass
coldPass(const Grid &g, const std::string &dir, RunProbe &probe,
         Tracer *tracer, std::int64_t pass_id)
{
    removeTree(dir);
    probe.simulated = 0;
    probe.ops = 0;
    probe.tracer = tracer;
    probe.pass = pass_id;
    Pass out;
    const auto t0 = Clock::now();
    {
        std::optional<ScopedSpan> root;
        if (tracer)
            root.emplace(*tracer, "pass.sweep", 0, pass_id);
        SweepRunner runner(SweepOptions{.jobs = kWorkers,
                                        .cache = true,
                                        .disk_cache_dir = dir});
        {
            std::optional<ScopedSpan> run;
            if (tracer) {
                run.emplace(*tracer, "exec.run", root->id(), pass_id);
                probe.parent = run->id();
            }
            out.results = runner.run(g.jobs);
        }
        out.cache = runner.cache().stats();
        out.io = runner.cache().diskCache()->ioStats();
    }
    out.wall_s = secondsSince(t0);
    probe.tracer = nullptr;
    return out;
}

/** One closed-loop request: replay the grid from the filled store. */
Pass
replayPass(const Grid &g, const std::string &store_root, RunProbe &probe,
           Tracer *tracer, std::int64_t pass_id)
{
    probe.simulated = 0;
    probe.ops = 0;
    probe.tracer = tracer;
    probe.pass = pass_id;
    smartconf::store::QueryFilter filter;
    filter.seed_min = g.first_seed;
    filter.seed_max = g.last_seed;
    Pass out;
    const auto t0 = Clock::now();
    {
        std::optional<ScopedSpan> root;
        if (tracer)
            root.emplace(*tracer, "pass.replay", 0, pass_id);
        const std::uint32_t root_id = tracer ? root->id() : 0;
        std::optional<SweepRunner> runner;
        {
            std::optional<ScopedSpan> open;
            if (tracer)
                open.emplace(*tracer, "store.open", root_id, pass_id);
            runner.emplace(SweepOptions{.jobs = kWorkers,
                                        .cache = true,
                                        .disk_cache_dir = store_root});
        }
        {
            std::optional<ScopedSpan> run;
            if (tracer) {
                run.emplace(*tracer, "exec.run", root_id, pass_id);
                probe.parent = run->id();
            }
            out.results = runner->run(g.jobs);
        }
        DiskRunCache *disk = runner->cache().diskCache();
        {
            std::optional<ScopedSpan> query;
            if (tracer)
                query.emplace(*tracer, "store.query", root_id, pass_id);
            out.query_rows =
                smartconf::store::queryStore(disk->segmentStore(), filter)
                    .size();
        }
        out.cache = runner->cache().stats();
        out.io = disk->ioStats();
    }
    out.wall_s = secondsSince(t0);
    probe.tracer = nullptr;
    return out;
}

/** Checks shared by both workloads' passes; returns result digests. */
std::vector<std::uint64_t>
checkResults(const Grid &g, const Pass &p,
             const std::vector<std::uint64_t> &expected, Report &rep,
             const char *what)
{
    rep.attempted += g.jobs.size();
    std::vector<std::uint64_t> ds = digests(p.results);
    if (!expected.empty()) {
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < ds.size(); ++i)
            bad += ds[i] != expected[i];
        fail(rep, bad, std::string(what) + ": runs differ from reference");
    }
    const std::uint64_t dups = g.jobs.size() - g.distinct;
    fail(rep, absDiff(p.cache.hits, dups),
         std::string(what) + ": in-memory hits != duplicate keys");
    fail(rep, absDiff(p.cache.misses, g.distinct),
         std::string(what) + ": misses != distinct keys");
    return ds;
}

void
checkColdPass(const Grid &g, const Pass &p, const RunProbe &probe,
              Report &rep)
{
    fail(rep, absDiff(probe.simulated.load(), g.distinct),
         "sweep-cold: simulated runs != distinct keys");
    fail(rep, p.cache.disk_hits, "sweep-cold: read results from the store");
    fail(rep, p.io.reads, "sweep-cold: store payload reads");
    fail(rep, absDiff(p.cache.disk_stores, g.distinct),
         "sweep-cold: disk stores != distinct keys");
}

/**
 * Exec and scenario figures from the spans of the traced passes (wall
 * ns, scaled to reference units by the caller).  @return total ns spent
 * inside SweepJob::fn.
 */
double
sweepSpanMetrics(const std::vector<Span> &spans, Report &rep,
                 std::map<std::string, double> &layer_ns)
{
    std::map<std::int64_t, std::vector<Span>> by_pass;
    for (const Span &s : spans)
        by_pass[s.pass].push_back(s);

    std::map<std::string, std::vector<double>> run_ms; // by span name
    std::map<std::string, double> busy_ms;              // by substrate
    std::vector<double> all_runs, busy, idle, tail, coverage;
    double run_ns = 0.0;
    for (const auto &[pass, ps] : by_pass) {
        const Span *exec_run = nullptr;
        std::map<std::uint32_t, std::int64_t> last_end; // by thread
        double pass_busy = 0.0;
        for (const Span &s : ps) {
            if (s.name == "exec.run")
                exec_run = &s;
            if (s.run < 0)
                continue;
            const double ms = s.durationNs() / 1e6;
            run_ms[s.name].push_back(ms);
            all_runs.push_back(ms);
            pass_busy += ms;
            run_ns += static_cast<double>(s.durationNs());
            const std::size_t dot = s.name.find('.') + 1; // scenarios.<ID>.
            const std::string id =
                s.name.substr(dot, s.name.find('.', dot) - dot);
            busy_ms[substrateOf(id)] += ms;
            auto &e = last_end[s.thread];
            e = std::max(e, s.end_ns);
        }
        if (!exec_run)
            continue;
        busy.push_back(pass_busy);
        const double wall_ms = exec_run->durationNs() / 1e6;
        idle.push_back(1.0 - pass_busy / (wall_ms * kWorkers));
        std::int64_t first_out = exec_run->end_ns;
        for (const auto &[thread, end] : last_end)
            first_out = std::min(first_out, end);
        tail.push_back((exec_run->end_ns - first_out) / 1e6);
        coverage.push_back(passCoverage(ps, layer_ns));
    }
    const double passes = static_cast<double>(by_pass.size());
    const auto mean = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    for (const char *id : kScenarioIds) {
        const std::string base = std::string("scenarios.") + id;
        rep.metrics[base + ".smart_ms"] = mean(run_ms[base + ".smart"]);
        rep.metrics[base + ".static_ms"] = mean(run_ms[base + ".static"]);
    }
    for (const char *sub : {"kvstore", "dfs", "mapreduce"})
        rep.metrics[std::string(sub) + ".busy_ms"] = busy_ms[sub] / passes;
    rep.metrics["sweep.run_ms_p50"] = percentile(all_runs, 0.50);
    rep.metrics["sweep.run_ms_p99"] = percentile(all_runs, 0.99);
    rep.metrics["sweep.run_samples"] = static_cast<double>(all_runs.size());
    rep.metrics["exec.busy_ms"] = median(busy);
    rep.metrics["exec.idle_frac"] = median(idle);
    rep.metrics["exec.tail_ms"] = median(tail);
    rep.metrics["trace.coverage"] = median(coverage);
    return run_ns;
}

/** Fig. 5: geomean over case studies of Smart / Static-Patch trade-off. */
void
qualityMetrics(const Grid &g, const std::vector<ScenarioResult> &rs,
               Report &rep)
{
    double log_sum = 0.0;
    int studies = 0;
    std::uint64_t smart_runs = 0, smart_violated = 0;
    for (const char *id : kScenarioIds) {
        double smart = 0.0, patch = 0.0;
        int ns = 0, np = 0;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            if (g.ids[i] != id)
                continue;
            if (g.policy[i] == 0) {
                smart += rs[i].tradeoff;
                ++ns;
                ++smart_runs;
                smart_violated += rs[i].violated;
            } else if (g.policy[i] == 1) {
                patch += rs[i].tradeoff;
                ++np;
            }
        }
        if (ns && np && smart > 0.0 && patch > 0.0) {
            log_sum += std::log((smart / ns) / (patch / np));
            ++studies;
        }
    }
    rep.metrics["scenarios.tradeoff_speedup"] =
        studies ? std::exp(log_sum / studies) : 0.0;
    rep.metrics["scenarios.smart_violation_frac"] =
        smart_runs ? static_cast<double>(smart_violated) /
                         static_cast<double>(smart_runs)
                   : 0.0;
}

void
cacheAndStoreCounters(const Pass &p, Report &rep)
{
    rep.metrics["run_cache.hits"] = static_cast<double>(p.cache.hits);
    rep.metrics["run_cache.misses"] = static_cast<double>(p.cache.misses);
    rep.metrics["run_cache.disk_hits"] =
        static_cast<double>(p.cache.disk_hits);
    rep.metrics["run_cache.disk_stores"] =
        static_cast<double>(p.cache.disk_stores);
    rep.metrics["store.reads"] = static_cast<double>(p.io.reads);
    rep.metrics["store.segments_opened"] =
        static_cast<double>(p.io.segments_opened);
    rep.metrics["store.segments_published"] =
        static_cast<double>(p.io.segments_published);
    rep.metrics["store.compactions"] = static_cast<double>(p.io.compactions);
    rep.metrics["store.rescans"] = static_cast<double>(p.io.rescans);
}

/** Keeps the replayed controller outputs observable. */
volatile double g_sink = 0.0;

/** Length of each timed probe loop, wall seconds. */
constexpr double kProbeS = 0.15;

/** Scenario::profile per case study; also yields the controller inputs. */
std::map<std::string, smartconf::ProfileSummary>
profileProbe(const Grid &g, Report &rep)
{
    std::map<std::string, smartconf::ProfileSummary> summaries;
    for (const char *id : kScenarioIds) {
        const auto scenario = smartconf::scenarios::makeScenario(id);
        std::vector<double> ms;
        for (std::uint64_t s = 0; s < 3; ++s) {
            const auto t0 = Clock::now();
            const smartconf::ProfileSummary sum =
                scenario->profile(g.first_seed + s);
            ms.push_back(secondsSince(t0) * 1e3);
            if (s == 0)
                summaries[id] = sum;
        }
        rep.metrics[std::string("scenarios.") + id + ".profile_ms"] =
            median(ms);
    }
    return summaries;
}

/** YcsbGenerator / DfsioGenerator::tickInto, ns per generated request. */
void
generatorProbe(std::uint64_t seed, Report &rep)
{
    using namespace smartconf::workload;
    std::vector<double> ycsb_ns, dfsio_ns;
    for (std::uint64_t r = 0; r < 3; ++r) {
        YcsbGenerator ycsb(YcsbParams{}, smartconf::sim::Rng(seed + r));
        std::vector<Op> ops;
        std::uint64_t n = 0;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < kProbeS / 3)
            for (int i = 0; i < 256; ++i) {
                ycsb.tickInto(ops);
                n += ops.size();
            }
        ycsb_ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(n));

        DfsioGenerator dfsio(DfsioParams{}, smartconf::sim::Rng(seed + r));
        std::vector<DfsRequest> reqs;
        std::uint64_t m = 0;
        smartconf::sim::Tick now = 0;
        const auto t1 = Clock::now();
        while (secondsSince(t1) < kProbeS / 3)
            for (int i = 0; i < 256; ++i) {
                dfsio.tickInto(now++, reqs);
                m += reqs.size();
            }
        dfsio_ns.push_back(secondsSince(t1) * 1e9 / static_cast<double>(m));
    }
    rep.metrics["workload.ycsb_ns_per_op"] = median(ycsb_ns);
    rep.metrics["workload.dfsio_ns_per_op"] = median(dfsio_ns);
}

/**
 * Controller::update cost: replay each Smart run's recorded perf and
 * conf series through a Controller built from its case study's profile.
 */
void
controllerProbe(const Grid &g, const std::vector<ScenarioResult> &rs,
                const std::map<std::string, smartconf::ProfileSummary> &sums,
                Report &rep)
{
    struct Replay
    {
        smartconf::ControllerParams params;
        smartconf::Goal goal;
        const ScenarioResult *r;
    };
    std::vector<Replay> replays;
    std::uint64_t per_round = 0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        if (g.policy[i] != 0)
            continue;
        const auto &sum = sums.at(g.ids[i]);
        const auto scenario = smartconf::scenarios::makeScenario(g.ids[i]);
        Replay rp{{}, {}, &rs[i]};
        rp.params.alpha = sum.alpha;
        rp.params.pole = sum.pole;
        rp.params.lambda = sum.lambda;
        rp.goal.metric = scenario->info().metric_name;
        rp.goal.value = rs[i].goal_value;
        rp.goal.hard = scenario->info().hard;
        replays.push_back(rp);
        per_round += std::min(rs[i].perf_series.size(),
                              rs[i].conf_series.size());
    }
    double sink = 0.0;
    std::uint64_t updates = 0;
    const auto t0 = Clock::now();
    do {
        for (const Replay &rp : replays) {
            try {
                smartconf::Controller ctl(rp.params, rp.goal);
                const auto &perf = rp.r->perf_series.points();
                const auto &conf = rp.r->conf_series.points();
                const std::size_t n = std::min(perf.size(), conf.size());
                for (std::size_t k = 0; k < n; ++k)
                    sink += ctl.update(perf[k].value, conf[k].value);
                updates += n;
            } catch (const std::invalid_argument &) {
                // A profile outside the stability region: nothing to time.
            }
        }
    } while (secondsSince(t0) < kProbeS && updates > 0);
    const double ns = secondsSince(t0) * 1e9;
    g_sink = sink;
    rep.metrics["core.updates"] = static_cast<double>(per_round);
    rep.metrics["core.update_ns"] =
        updates ? ns / static_cast<double>(updates) : 0.0;
}

/** DiskRunCache::store latency into a fresh store, one put per key. */
void
putProbe(const Grid &g, const std::vector<ScenarioResult> &rs,
         const std::string &dir, Report &rep)
{
    removeTree(dir);
    std::vector<double> us;
    {
        DiskRunCache cache(dir);
        std::set<std::string> seen;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            if (!seen.insert(g.jobs[i].cache_key).second)
                continue;
            const auto t0 = Clock::now();
            cache.store(g.jobs[i].cache_key, rs[i]);
            us.push_back(secondsSince(t0) * 1e6);
        }
        cache.flush();
    }
    removeTree(dir);
    rep.metrics["store.put_us_p50"] = percentile(us, 0.50);
    rep.metrics["store.put_us_p99"] = percentile(us, 0.99);
}

/** DiskRunCache::load on a fresh handle, then serialize and parse. */
void
loadProbe(const Grid &g, const std::string &store_root,
          const std::vector<std::uint64_t> &reference, Report &rep)
{
    std::vector<double> load_us, ser_us, parse_us;
    DiskRunCache cache(store_root);
    std::set<std::string> seen;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < g.jobs.size(); ++i) {
        const std::string &key = g.jobs[i].cache_key;
        if (!seen.insert(key).second)
            continue;
        ScenarioResult loaded;
        auto t0 = Clock::now();
        const bool hit = cache.load(key, loaded);
        load_us.push_back(secondsSince(t0) * 1e6);
        t0 = Clock::now();
        const std::vector<char> bytes = DiskRunCache::serializeResult(loaded);
        ser_us.push_back(secondsSince(t0) * 1e6);
        ScenarioResult parsed;
        t0 = Clock::now();
        const bool ok =
            DiskRunCache::parseResult(bytes.data(), bytes.size(), parsed);
        parse_us.push_back(secondsSince(t0) * 1e6);
        bad += !hit || !ok || resultDigest(parsed) != reference[i];
    }
    rep.attempted += seen.size();
    fail(rep, bad, "replay-warm: fresh-handle load/parse differs from cold");
    rep.metrics["store.load_us_p50"] = percentile(load_us, 0.50);
    rep.metrics["store.load_us_p99"] = percentile(load_us, 0.99);
    rep.metrics["exec.serialize_us_p50"] = percentile(ser_us, 0.50);
    rep.metrics["exec.parse_us_p50"] = percentile(parse_us, 0.50);
    rep.metrics["exec.parse_us_p99"] = percentile(parse_us, 0.99);
}

void
compactProbe(const std::string &store_root, Report &rep)
{
    DiskRunCache cache(store_root);
    const auto t0 = Clock::now();
    cache.segmentStore().compact();
    rep.metrics["store.compact_ms"] = secondsSince(t0) * 1e3;
}

/** First measured seed; the passes use [base, base + kSeeds). */
std::uint64_t
baseSeed(const Options &opts)
{
    return opts.seed * 1000 + 1;
}

} // namespace

int
runSweepCold(const Options &opts, Report &rep)
{
    RunProbe probe;
    const std::uint64_t base = baseSeed(opts);
    const Grid grid = makeGrid(base, kSeeds, probe);
    // Warm-up on a seed outside the measured range: fills the
    // process-wide Zipfian zeta cache and alias tables.
    const Grid warm = makeGrid(base + kSeeds, 1, probe);
    coldPass(warm, opts.work_dir + "/warmup", probe, nullptr, -1);
    removeTree(opts.work_dir + "/warmup");
    rep.setup_s = setupSeconds();
    if (opts.setup_only)
        return 0;

    Tracer tracer;
    const std::string dir = opts.work_dir + "/cold";
    std::vector<std::uint64_t> reference;
    std::uint64_t sim_ops = 0;
    Pass last_traced;
    const Timings t = closedLoop(opts, [&](bool traced, std::int64_t k) {
        Pass p = coldPass(grid, dir, probe, traced ? &tracer : nullptr, k);
        const auto ds =
            checkResults(grid, p, reference, rep, "sweep-cold");
        checkColdPass(grid, p, probe, rep);
        if (reference.empty()) {
            reference = ds;
            rep.payload = payloadDigest(grid, ds);
        }
        const double wall = p.wall_s;
        if (traced) {
            sim_ops = probe.ops.load();
            last_traced = std::move(p);
        }
        return wall;
    });
    removeTree(dir);

    if (!opts.trace) {
        rep.metrics["work_per_s"] = static_cast<double>(grid.jobs.size()) /
                                    (median(t.untraced) * t.toReference());
        rep.metrics["rss_mb"] = t.rss_mb;
        return 0;
    }

    const std::vector<Span> spans = tracer.collect();
    std::map<std::string, double> layer_ns;
    const double run_ns = sweepSpanMetrics(spans, rep, layer_ns);
    rep.metrics["sim.ops_simulated"] = static_cast<double>(sim_ops);
    rep.metrics["sim.ns_per_op"] =
        run_ns / (static_cast<double>(sim_ops) *
                  static_cast<double>(t.traced.size()));
    cacheAndStoreCounters(last_traced, rep);
    qualityMetrics(grid, last_traced.results, rep);
    const auto sums = profileProbe(grid, rep);
    generatorProbe(base, rep);
    controllerProbe(grid, last_traced.results, sums, rep);
    putProbe(grid, last_traced.results, opts.work_dir + "/putprobe", rep);
    finishTrace(t, rep);
    if (!opts.span_file.empty())
        writeSpans(opts.span_file, spans);
    explainCoverage(rep, layer_ns,
                    "exec: scheduling, run-cache bookkeeping and store puts "
                    "outside SweepJob::fn, plus workers idle in the tail "
                    "(exec.tail_ms)");
    return 0;
}

int
runReplayWarm(const Options &opts, Report &rep)
{
    RunProbe probe;
    const std::uint64_t base = baseSeed(opts);
    const Grid grid = makeGrid(base, kSeeds, probe);
    const Grid warm = makeGrid(base + kSeeds, 1, probe);
    const std::string store_root = opts.work_dir + "/store";

    // Setup: fill the store with the measured keys and the held-out
    // seed's, then warm up the replay path on the held-out seed.
    std::vector<std::uint64_t> reference;
    {
        SweepRunner fill(SweepOptions{.jobs = kWorkers,
                                      .cache = true,
                                      .disk_cache_dir = store_root});
        probe.simulated = 0;
        reference = digests(fill.run(grid.jobs));
        fill.run(warm.jobs);
        if (probe.simulated != grid.distinct + warm.distinct) {
            std::fprintf(stderr, "perfbench: store fill simulated %llu "
                                 "runs, expected %zu\n",
                         static_cast<unsigned long long>(probe.simulated),
                         grid.distinct + warm.distinct);
            return 1;
        }
    }
    replayPass(warm, store_root, probe, nullptr, -1);
    rep.setup_s = setupSeconds();
    if (opts.setup_only)
        return 0;
    rep.payload = payloadDigest(grid, reference);

    Tracer tracer;
    Pass last_traced;
    std::uint64_t sim_ops = 0;
    const Timings t = closedLoop(opts, [&](bool traced, std::int64_t k) {
        Pass p = replayPass(grid, store_root, probe,
                            traced ? &tracer : nullptr, k);
        checkResults(grid, p, reference, rep, "replay-warm");
        fail(rep, probe.simulated.load(),
             "replay-warm: keys simulated again");
        fail(rep, absDiff(p.cache.disk_hits, grid.distinct),
             "replay-warm: disk hits != distinct keys");
        rep.attempted += 1; // the range query
        fail(rep, p.query_rows != grid.distinct,
             "replay-warm: query rows != distinct keys");
        const double wall = p.wall_s;
        if (traced) {
            sim_ops = probe.ops.load();
            last_traced = std::move(p);
        }
        return wall;
    });

    if (!opts.trace) {
        rep.metrics["work_per_s"] = static_cast<double>(grid.jobs.size()) /
                                    (median(t.untraced) * t.toReference());
        rep.metrics["rss_mb"] = t.rss_mb;
        return 0;
    }

    const std::vector<Span> spans = tracer.collect();
    std::map<std::int64_t, std::vector<Span>> by_pass;
    std::vector<double> query_ms;
    for (const Span &s : spans) {
        by_pass[s.pass].push_back(s);
        if (s.name == "store.query")
            query_ms.push_back(s.durationNs() / 1e6);
    }
    std::vector<double> coverage;
    std::map<std::string, double> layer_ns;
    for (const auto &[pass, ps] : by_pass)
        coverage.push_back(passCoverage(ps, layer_ns));
    rep.metrics["trace.coverage"] = median(coverage);
    rep.metrics["sim.ops_simulated"] = static_cast<double>(sim_ops);
    cacheAndStoreCounters(last_traced, rep);
    const auto &io = last_traced.io;
    rep.metrics["store.bytes_per_run"] =
        io.reads ? static_cast<double>(io.read_bytes) /
                       static_cast<double>(io.reads)
                 : 0.0;
    rep.metrics["store.query_ms"] = median(query_ms);
    qualityMetrics(grid, last_traced.results, rep);
    loadProbe(grid, store_root, reference, rep);
    compactProbe(store_root, rep);
    finishTrace(t, rep);
    if (!opts.span_file.empty())
        writeSpans(opts.span_file, spans);
    explainCoverage(rep, layer_ns,
                    "exec workers inside SweepRunner::run (run-cache "
                    "lookup, store reads, result parsing): one worker's "
                    "worth is the exec.run span, the rest needs spans "
                    "inside the program; store.load_us and exec.parse_us "
                    "time those calls directly");
    return 0;
}

} // namespace perfbench
