/**
 * @file Exact-output pins for every case study.
 *
 * Each scenario runs five policies at one seed (the patched static
 * default, full SmartConf, the two Fig. 7 ablations, and SmartConf
 * under the kitchen-sink chaos campaign), and an FNV-1a digest of every
 * ScenarioResult field — headline numbers, shard counters and the three
 * time series — must equal the recorded constant.  Any change to a
 * workload draw, a substrate step, the control loop or the intra-tick
 * order of step / control / record shows up here as a digest mismatch.
 * The constants change only when a run's output is meant to change.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "fault/spec.h"
#include "scenarios/scenario.h"

namespace smartconf::scenarios {
namespace {

constexpr std::uint64_t kSeed = 3;

/** 64-bit FNV-1a over the bytes of each appended value. */
class Fnv1a
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            const unsigned char b = static_cast<unsigned char>(v >> (8 * i));
            bytes(&b, 1);
        }
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    void series(const sim::TimeSeries &ts)
    {
        str(ts.name());
        u64(ts.size());
        for (const auto &pt : ts.points()) {
            u64(static_cast<std::uint64_t>(pt.tick));
            f64(pt.value);
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
digest(const ScenarioResult &r)
{
    Fnv1a d;
    d.str(r.scenario_id);
    d.str(r.policy_label);
    d.u64(r.violated ? 1 : 0);
    d.f64(r.violation_time_s);
    d.f64(r.worst_goal_metric);
    d.f64(r.goal_value);
    d.f64(r.tradeoff);
    d.f64(r.raw_tradeoff);
    d.f64(r.mean_conf);
    d.u64(r.ops_simulated);
    d.u64(r.faults_injected);
    d.u64(r.shard_ops.size());
    for (const std::uint64_t n : r.shard_ops)
        d.u64(n);
    d.series(r.perf_series);
    d.series(r.conf_series);
    d.series(r.tradeoff_series);
    return d.value();
}

struct Pinned
{
    const char *id;
    /** Static-default, smart, single-pole, no-virtual-goal, chaos. */
    std::uint64_t digests[5];
};

const Pinned kPinned[] = {
    {"CA6059",
     {0x09865f98c91d3167ULL, 0xe96537d3c73afe9dULL,
      0x52e7eef2c6d8eec1ULL, 0x2316d2567c622e78ULL,
      0xbc2c203f55cab329ULL}},
    {"HB2149",
     {0xdbaa9a94474a27e3ULL, 0xd8c3b8b07b4679c3ULL,
      0x4671d60533ab0a0fULL, 0x2e97f06831041919ULL,
      0x1be771832f83e2a4ULL}},
    {"HB3813",
     {0x47fc6ad7e910eae1ULL, 0x13e5a15e1c53e6a0ULL,
      0x414a39ceb685afc2ULL, 0x298b799ee3e875b7ULL,
      0xd263c0741c460485ULL}},
    {"HB6728",
     {0x583cd929690b4e94ULL, 0xc8f9a7f1c9670e96ULL,
      0x627e62f699c247a6ULL, 0xb963a8b5933d529bULL,
      0x7d4952bc3a1349dbULL}},
    {"HD4995",
     {0xa2b71186d16ed16aULL, 0xdafa6b4346566d71ULL,
      0xfda4b1368a40df4aULL, 0x00779a9b5b1c355fULL,
      0x08d4a8a9b88cc5b1ULL}},
    {"MR2820",
     {0x491ff972d381789eULL, 0xfa5c94541fa38abeULL,
      0x40e477e3cfc0787fULL, 0x76d79d116a591e4aULL,
      0xd379f698b89fab56ULL}},
};

void
PrintTo(const Pinned &pin, std::ostream *os)
{
    *os << pin.id;
}

class GoldenDigests : public ::testing::TestWithParam<Pinned>
{};

TEST_P(GoldenDigests, EveryPolicyMatchesItsRecordedDigest)
{
    const Pinned &pin = GetParam();
    const auto s = makeScenario(pin.id);
    ASSERT_NE(s, nullptr);
    const Policy policies[5] = {
        Policy::makeStatic(s->info().patch_default, "Patch-Default"),
        Policy::smart(),
        Policy::singlePole(),
        Policy::noVirtualGoal(),
        Policy::smart().withChaos(fault::ChaosSpec::kitchenSink()),
    };
    for (int i = 0; i < 5; ++i) {
        const ScenarioResult r = s->run(policies[i], kSeed);
        char got[32];
        std::snprintf(got, sizeof got, "0x%016llxULL",
                      static_cast<unsigned long long>(digest(r)));
        if (policies[i].hasChaos()) {
            EXPECT_GT(r.faults_injected, 0u) << pin.id;
        }
        EXPECT_EQ(digest(r), pin.digests[i])
            << pin.id << " policy #" << i << " (" << r.policy_label
            << ") digest " << got;
    }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, GoldenDigests,
                         ::testing::ValuesIn(kPinned),
                         [](const auto &info) {
                             return std::string(info.param.id);
                         });

} // namespace
} // namespace smartconf::scenarios
