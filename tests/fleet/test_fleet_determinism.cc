/**
 * @file
 * Fleet determinism across executor configurations: the results that
 * feed bench_fleet's JSON payload must be identical whether the epoch
 * bodies run serially on the calling thread or on a parallelFor pool
 * of any size.  This is the in-process half of the
 * `bench_fleet --json` byte-identity that CI checks via the payload
 * sha at every --jobs count.
 */

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "fleet/fleet.h"

namespace smartconf::fleet {
namespace {

FleetParams
testFleet()
{
    FleetParams p;
    p.tenants = 512;
    p.ticks = 120;
    p.seed = 3;
    return p;
}

void
expectIdentical(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_DOUBLE_EQ(a.violation_rate_mean, b.violation_rate_mean);
    EXPECT_DOUBLE_EQ(a.violation_rate_p99, b.violation_rate_p99);
    EXPECT_DOUBLE_EQ(a.tenants_violated_frac,
                     b.tenants_violated_frac);
    EXPECT_DOUBLE_EQ(a.convergence_p50_ticks,
                     b.convergence_p50_ticks);
    EXPECT_DOUBLE_EQ(a.convergence_p99_ticks,
                     b.convergence_p99_ticks);
    EXPECT_DOUBLE_EQ(a.mean_conf_rel, b.mean_conf_rel);
    EXPECT_EQ(a.clusters, b.clusters);
    EXPECT_DOUBLE_EQ(a.max_interaction, b.max_interaction);
    EXPECT_EQ(a.coord.attach_calls, b.coord.attach_calls);
    EXPECT_EQ(a.coord.aggregate_violations,
              b.coord.aggregate_violations);
    ASSERT_EQ(a.per_archetype.size(), b.per_archetype.size());
    for (std::size_t i = 0; i < a.per_archetype.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.per_archetype[i].violation_rate,
                         b.per_archetype[i].violation_rate);
        EXPECT_DOUBLE_EQ(a.per_archetype[i].mean_conf_rel,
                         b.per_archetype[i].mean_conf_rel);
    }
}

TEST(FleetDeterminism, PoolSizeDoesNotChangeResults)
{
    // Reference: no pool, groups run serially in group order.
    const FleetResult serial = runFleet(testFleet());

    for (const std::size_t jobs : {2u, 8u}) {
        exec::ThreadPool pool(jobs);
        FleetParams p = testFleet();
        p.pool = &pool;
        const FleetResult parallel = runFleet(p);
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        expectIdentical(serial, parallel);
    }
}

TEST(FleetDeterminism, RepeatRunsAreBitIdentical)
{
    const FleetResult a = runFleet(testFleet());
    const FleetResult b = runFleet(testFleet());
    expectIdentical(a, b);
    EXPECT_EQ(a.coord.fanouts, b.coord.fanouts);
    EXPECT_EQ(a.epochs, b.epochs);
}

} // namespace
} // namespace smartconf::fleet
