#ifndef SMARTCONF_WORKLOAD_SHARDED_H_
#define SMARTCONF_WORKLOAD_SHARDED_H_

/**
 * @file
 * Shard-split workload generators (the sharded data plane's producers).
 *
 * These mirror YcsbGenerator / DfsioGenerator knob-for-knob but
 * partition each tick's batch across the fixed logical shards of a
 * sim::ShardPlane: the per-tick batch size comes from the plane's
 * control stream, and each block of the batch is produced *entirely*
 * by its lane from that lane's jump-derived stream, into disjoint
 * segments of the shared SoA scratch buffers.  A YCSB lane draws the
 * type coins, skips one word per op where the Zipf keys used to be
 * (no substrate reads a key, so the sharded path leaves Op::key at 0
 * and keeps the stream's layout), then draws the size jitter.  The
 * (n, tick_seq) -> block/lane layout is pure (sim::shardLayout) and
 * every lane owns its gaussian spare, so the generated batch is a
 * function of (params, seed) alone.
 *
 * The RNG stream this defines *differs* from the single-stream
 * generators: block b of a tick is drawn from lane
 * (tick_seq + b) % kShards, not from one shared stream.
 */

#include <cstdint>
#include <vector>

#include "sim/clock.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "workload/dfsio.h"
#include "workload/ycsb.h"

namespace smartconf::workload {

/**
 * YCSB batches produced per logical shard.
 */
class ShardedYcsbGenerator
{
  public:
    /** @p rng becomes the plane's base: control stream plus kShards
     *  jump-derived lane streams. */
    ShardedYcsbGenerator(const YcsbParams &params, sim::Rng rng);

    /**
     * Fill @p out (resized, buffer reused) with one tick's operations.
     * Each block of the sim::shardLayout layout fills its [begin, end)
     * segment from its own lane, in the same struct-of-arrays column
     * order as YcsbGenerator (coins, skipped key words, sizes).  Every
     * op's key is 0.
     */
    void tickInto(std::vector<Op> &out);

    void setParams(const YcsbParams &params) { params_ = params; }

    void setOpsPerTick(double v) { params_.ops_per_tick = v; }
    void setWriteFraction(double v) { params_.write_fraction = v; }
    void setRequestSizeMb(double v) { params_.request_size_mb = v; }
    void setBurstiness(double v) { params_.burstiness = v; }
    void setCacheRatio(double v) { params_.cache_ratio = v; }

    const YcsbParams &params() const { return params_; }

    std::uint64_t generated() const { return generated_; }

    /** Ops produced per logical shard (pinned lane order). */
    const std::array<std::uint64_t, sim::kShards> &shardOps() const
    {
        return plane_.opsPerShard();
    }

  private:
    YcsbParams params_;
    sim::ShardPlane plane_;
    std::uint64_t generated_ = 0;

    /** Shared SoA buffers; blocks write disjoint segments. */
    std::vector<std::uint64_t> scratch_;
    std::vector<double> jitter_;
};

/**
 * TestDFSIO namenode request batches produced per logical shard.  The
 * periodic admin `du` stays on the control path (it draws no RNG word
 * and is one request per du_period ticks).
 */
class ShardedDfsioGenerator
{
  public:
    ShardedDfsioGenerator(const DfsioParams &params, sim::Rng rng);

    void tickInto(sim::Tick now, std::vector<DfsRequest> &out);

    void setParams(const DfsioParams &params) { params_ = params; }
    const DfsioParams &params() const { return params_; }

    std::uint64_t generated() const { return generated_; }

    const std::array<std::uint64_t, sim::kShards> &shardOps() const
    {
        return plane_.opsPerShard();
    }

  private:
    DfsioParams params_;
    sim::ShardPlane plane_;
    sim::Tick last_du_ = -1;
    std::uint64_t generated_ = 0;

    std::vector<std::uint64_t> scratch_;
};

} // namespace smartconf::workload

#endif // SMARTCONF_WORKLOAD_SHARDED_H_
