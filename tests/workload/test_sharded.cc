/** @file Unit tests for the shard-split workload generators. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "workload/sharded.h"

namespace smartconf::workload {
namespace {

/** Pinned digest of the 50-tick stream below: any change to the block
 *  layout, the lane mapping or a lane's draw order moves it.  It hashes
 *  types and sizes only (the sharded path draws no keys); the value is
 *  the one the keyed generator's stream gives with the key term left
 *  out, so skipping the key words kept every type and size. */
constexpr std::uint64_t kPinnedYcsbOps = 1780;
constexpr std::uint64_t kPinnedYcsbDigest = 10548344102738242269ULL;

YcsbParams
ycsbParams(double write_frac, double rate = 400.0)
{
    YcsbParams p;
    p.write_fraction = write_frac;
    p.request_size_mb = 1.0;
    p.ops_per_tick = rate;
    p.burstiness = 0.2;
    return p;
}

DfsioParams
dfsioParams(std::uint64_t clients = 6)
{
    DfsioParams p;
    p.clients = clients;
    p.writes_per_tick = 300.0;
    p.burstiness = 0.25;
    p.du_period = 10;
    p.du_file_count = 1000;
    return p;
}

/** FNV-1a over each op's type and size bits, in stream order. */
std::uint64_t
fnvOps(std::uint64_t h, const std::vector<Op> &ops)
{
    const auto mix = [&h](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xffu;
            h *= 1099511628211ULL;
        }
    };
    for (const Op &op : ops) {
        mix(static_cast<std::uint64_t>(op.type));
        std::uint64_t bits = 0;
        std::memcpy(&bits, &op.size_mb, sizeof bits);
        mix(bits);
    }
    return h;
}

TEST(ShardedYcsb, FiftyTickStreamDigestIsPinned)
{
    // The generated stream is a pure function of (params, seed) and
    // the logical 16-lane layout.  ~32 ops/tick with heavy burstiness
    // mixes single-block ticks (n <= kShardGranule) with multi-block
    // ones, so the digest pins both shapes of the layout and the
    // tick_seq -> lane rotation.
    ShardedYcsbGenerator gen(ycsbParams(0.5, 32.0), sim::Rng(11));
    gen.setBurstiness(0.5);
    std::uint64_t h = 14695981039346656037ULL; // FNV offset basis
    std::size_t single = 0, multi = 0;
    std::vector<Op> ops;
    for (int t = 0; t < 50; ++t) {
        gen.tickInto(ops);
        (sim::shardBlockCount(ops.size()) > 1 ? multi : single) += 1;
        h = fnvOps(h, ops);
    }
    EXPECT_GT(single, 0u);
    EXPECT_GT(multi, 0u);
    EXPECT_EQ(gen.generated(), kPinnedYcsbOps);
    EXPECT_EQ(h, kPinnedYcsbDigest);
}

TEST(ShardedYcsb, ShardCountersSumToGenerated)
{
    ShardedYcsbGenerator gen(ycsbParams(0.5), sim::Rng(12));
    std::vector<Op> ops;
    for (int t = 0; t < 100; ++t)
        gen.tickInto(ops);
    std::uint64_t sum = 0;
    for (const std::uint64_t v : gen.shardOps())
        sum += v;
    EXPECT_EQ(sum, gen.generated());
    EXPECT_GT(gen.generated(), 0u);
    // A 400-op tick splits into 13 rotating blocks; over 100 ticks
    // every lane must have produced something.
    for (const std::uint64_t v : gen.shardOps())
        EXPECT_GT(v, 0u);
}

TEST(ShardedYcsb, HonoursWriteFractionAndMutators)
{
    ShardedYcsbGenerator gen(ycsbParams(1.0), sim::Rng(13));
    std::vector<Op> ops;
    gen.tickInto(ops);
    ASSERT_FALSE(ops.empty());
    for (const Op &op : ops)
        EXPECT_EQ(op.type, Op::Type::Write);

    gen.setWriteFraction(0.0);
    gen.tickInto(ops);
    ASSERT_FALSE(ops.empty());
    for (const Op &op : ops)
        EXPECT_EQ(op.type, Op::Type::Read);
}

TEST(ShardedYcsb, MultiBlockTickMatchesPerLaneReference)
{
    // Each block [begin, end) must hold what lane (seq + b) % kShards
    // of an independently built plane gives for it: len type coins,
    // len words where the keys used to be (drawn and dropped here, so
    // the reference does not lean on Rng::discard), then len size
    // jitters, with the lane's gaussian spare carried across ticks.
    const YcsbParams p = ycsbParams(0.5);
    ShardedYcsbGenerator gen(p, sim::Rng(14));
    sim::ShardPlane ref(sim::Rng(14));
    const std::uint64_t write_bound =
        sim::Rng::coinThreshold(p.write_fraction);
    std::vector<Op> ops;
    std::vector<std::uint64_t> words;
    std::vector<double> jitter;
    for (int t = 0; t < 30; ++t) {
        gen.tickInto(ops);
        const std::size_t n = ops.size();
        ASSERT_GT(n, sim::kShardGranule) << "tick " << t;
        const std::uint64_t seq = static_cast<std::uint64_t>(t);
        const std::size_t blocks =
            std::min((n + sim::kShardGranule - 1) / sim::kShardGranule,
                     sim::kShards);
        ASSERT_GT(blocks, 1u);
        for (std::size_t b = 0; b < blocks; ++b) {
            const std::size_t begin = b * n / blocks;
            const std::size_t end = (b + 1) * n / blocks;
            const std::size_t len = end - begin;
            sim::Rng &lane = ref.lane((seq + b) % sim::kShards);
            words.resize(2 * len); // coins, then the skipped words
            jitter.resize(len);
            lane.fillRaw(words.data(), 2 * len);
            lane.gaussianBatch(1.0, p.size_jitter, jitter.data(), len);
            for (std::size_t i = begin; i < end; ++i) {
                const std::size_t k = i - begin;
                const Op::Type type = (words[k] >> 11) < write_bound
                                          ? Op::Type::Write
                                          : Op::Type::Read;
                ASSERT_EQ(ops[i].type, type)
                    << "tick " << t << " block " << b << " op " << i;
                ASSERT_EQ(ops[i].size_mb,
                          p.request_size_mb * std::max(0.05, jitter[k]))
                    << "tick " << t << " block " << b << " op " << i;
                ASSERT_EQ(ops[i].key, 0u);
            }
        }
    }
}

TEST(ShardedDfsio, MultiBlockTickMatchesPerLaneReference)
{
    // Each block [begin, end) of a tick must hold exactly what lane
    // (seq + b) % kShards of an independently built plane draws for
    // it, with the block bounds b*n/B from B = min(ceil(n / granule),
    // kShards) — the layout and lane mapping, checked op by op.
    const std::uint64_t clients = 6; // not a power of two: modulo path
    ShardedDfsioGenerator gen(dfsioParams(clients), sim::Rng(23));
    sim::ShardPlane ref(sim::Rng(23));
    std::vector<DfsRequest> reqs;
    std::vector<std::uint64_t> expect;
    for (sim::Tick t = 0; t < 30; ++t) {
        gen.tickInto(t, reqs);
        std::size_t n = reqs.size();
        if (n != 0 &&
            reqs.back().type == DfsRequest::Type::ContentSummary)
            --n; // the periodic du rides at the end of the batch
        ASSERT_GT(n, sim::kShardGranule) << "tick " << t;
        const std::uint64_t seq = static_cast<std::uint64_t>(t);
        const std::size_t blocks =
            std::min((n + sim::kShardGranule - 1) / sim::kShardGranule,
                     sim::kShards);
        ASSERT_GT(blocks, 1u);
        for (std::size_t b = 0; b < blocks; ++b) {
            const std::size_t begin = b * n / blocks;
            const std::size_t end = (b + 1) * n / blocks;
            expect.resize(end - begin);
            ref.lane((seq + b) % sim::kShards)
                .fillRaw(expect.data(), expect.size());
            for (std::size_t i = begin; i < end; ++i) {
                ASSERT_EQ(reqs[i].type, DfsRequest::Type::WriteFile);
                ASSERT_EQ(reqs[i].client, expect[i - begin] % clients)
                    << "tick " << t << " block " << b << " op " << i;
            }
        }
    }
}

TEST(ShardedDfsio, EmitsPeriodicDuAndCountsIt)
{
    ShardedDfsioGenerator gen(dfsioParams(5), sim::Rng(22));
    std::vector<DfsRequest> reqs;
    std::uint64_t du_count = 0;
    for (sim::Tick t = 0; t < 100; ++t) {
        gen.tickInto(t, reqs);
        for (const DfsRequest &r : reqs) {
            if (r.type == DfsRequest::Type::ContentSummary)
                ++du_count;
            else
                EXPECT_LT(r.client, 5u);
        }
    }
    EXPECT_EQ(du_count, 10u); // du_period 10 over 100 ticks
    std::uint64_t sum = 0;
    for (const std::uint64_t v : gen.shardOps())
        sum += v;
    EXPECT_EQ(sum, gen.generated());
}

} // namespace
} // namespace smartconf::workload
