/**
 * @file
 * The fleet workload: runFleet with SmartConf tenants, tens of
 * thousands of them over several simulated days.  Bound by control and
 * coordination: many tiny per-tenant controller updates, the serial
 * FleetCoordinator epoch and an executor barrier per epoch.  No
 * scenario substrate and no store.
 */

#include <optional>

#include "bench.h"
#include "exec/thread_pool.h"
#include "fleet/fleet.h"
#include "trace.h"

namespace perfbench {

namespace {

using smartconf::fleet::FleetParams;
using smartconf::fleet::FleetResult;

constexpr std::uint32_t kTenants = 30000;
constexpr std::int64_t kTicks = 720; ///< three simulated days

/** Digest of everything runFleet reports except timings. */
std::uint64_t
fleetDigest(const FleetResult &r)
{
    Digest d;
    d.word(r.tenants);
    d.word(r.ticks);
    d.word(r.epochs);
    d.f64(r.violation_rate_mean);
    d.f64(r.violation_rate_p99);
    d.f64(r.tenants_violated_frac);
    d.f64(r.convergence_p50_ticks);
    d.f64(r.convergence_p99_ticks);
    d.f64(r.mean_conf_rel);
    d.word(r.clusters);
    d.word(r.clustered_tenants);
    d.f64(r.max_interaction);
    d.word(r.coord.epochs);
    d.word(r.coord.attach_calls);
    d.word(r.coord.fanouts);
    d.word(r.coord.aggregate_violations);
    d.word(r.checksum);
    for (const auto &row : r.per_archetype) {
        d.str(row.scenario_id);
        d.word(row.tenants);
        d.f64(row.violation_rate);
        d.f64(row.mean_conf_rel);
    }
    return d.value();
}

struct Timed
{
    FleetResult r;
    double wall_s = 0.0;
};

Timed
timedFleet(const FleetParams &p)
{
    const auto t0 = Clock::now();
    Timed t{smartconf::fleet::runFleet(p), 0.0};
    t.wall_s = secondsSince(t0);
    return t;
}

} // namespace

int
runFleetWorkload(const Options &opts, Report &rep)
{
    smartconf::exec::ThreadPool pool(kWorkers);
    FleetParams params;
    params.tenants = kTenants;
    params.ticks = kTicks;
    params.seed = opts.seed * 1000 + 1;
    params.smart = true;
    params.pool = &pool;

    // Warm-up on a seed outside the measured one: fills the Zipfian
    // zeta cache for this tenant count and the pool's arenas.
    FleetParams warm = params;
    warm.seed = params.seed + 1;
    smartconf::fleet::runFleet(warm);
    rep.setup_s = setupSeconds();
    if (opts.setup_only)
        return 0;

    Tracer tracer;
    std::optional<std::uint64_t> reference;
    FleetResult last;
    const Timings t = closedLoop(opts, [&](bool traced, std::int64_t k) {
        Timed run;
        if (traced) {
            ScopedSpan root(tracer, "pass.fleet", 0, k);
            ScopedSpan span(tracer, "fleet.run", root.id(), k);
            run = timedFleet(params);
        } else {
            run = timedFleet(params);
        }
        const std::uint64_t d = fleetDigest(run.r);
        rep.attempted += 1;
        if (!reference) {
            reference = d;
            rep.payload = d;
        }
        fail(rep, d != *reference, "fleet: pass differs from the first");
        if (traced)
            last = std::move(run.r);
        return run.wall_s;
    });

    const double tenant_ticks =
        static_cast<double>(kTenants) * static_cast<double>(kTicks);
    if (!opts.trace) {
        rep.metrics["work_per_s"] =
            tenant_ticks / (median(t.untraced) * t.toReference());
        rep.metrics["rss_mb"] = t.rss_mb;
        return 0;
    }

    const std::vector<Span> spans = tracer.collect();
    std::map<std::int64_t, std::vector<Span>> by_pass;
    std::vector<double> smart_ms;
    for (const Span &s : spans) {
        by_pass[s.pass].push_back(s);
        if (s.name == "fleet.run")
            smart_ms.push_back(s.durationNs() / 1e6);
    }
    std::vector<double> coverage;
    std::map<std::string, double> layer_ns;
    for (const auto &[pass, ps] : by_pass)
        coverage.push_back(passCoverage(ps, layer_ns));
    rep.metrics["trace.coverage"] = median(coverage);

    const double smart = median(smart_ms);
    rep.metrics["fleet.smart_ms"] = smart;
    rep.metrics["fleet.violation_frac"] = last.violation_rate_mean;
    // Reported by the program (FleetResult), not measured here.
    rep.metrics["fleet.coord_epoch_ms"] =
        last.coord.epochs ? last.coord.wall_ms /
                                static_cast<double>(last.coord.epochs)
                          : 0.0;
    rep.metrics["fleet.coord_fanouts"] =
        static_cast<double>(last.coord.fanouts);
    rep.metrics["fleet.coord_attach_calls"] =
        static_cast<double>(last.coord.attach_calls);

    FleetParams pinned = params;
    pinned.smart = false;
    const double static_ms = timedFleet(pinned).wall_s * 1e3;
    rep.metrics["fleet.static_ms"] = static_ms;
    rep.metrics["fleet.control_ms"] = smart - static_ms;

    // One worker: the same result, bit for bit, and the scaling ratio.
    FleetParams serial = params;
    serial.pool = nullptr;
    const Timed one = timedFleet(serial);
    rep.attempted += 1;
    fail(rep, fleetDigest(one.r) != *reference,
         "fleet: result at 1 worker differs from 2 workers");
    rep.metrics["exec.fleet_scaling"] = one.wall_s * 1e3 / smart;

    finishTrace(t, rep);
    if (!opts.span_file.empty())
        writeSpans(opts.span_file, spans);
    explainCoverage(rep, layer_ns,
                    "the exec workers' epoch bodies (tenant plants and "
                    "controllers) inside runFleet: the fleet.run span "
                    "covers one worker's worth; fleet.coord_epoch_ms is "
                    "the program's own figure for the serial epoch");
    return 0;
}

} // namespace perfbench
