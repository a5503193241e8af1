#ifndef SMARTCONF_SCENARIOS_CONTROL_H_
#define SMARTCONF_SCENARIOS_CONTROL_H_

/**
 * @file
 * The one driver for an evaluation run of a case study.
 *
 * Every scenario's run() follows the same recipe, and this header owns
 * all of it except the plant: fill the result header, branch on smart
 * vs static (profile, synthesize the controller, pick the starting
 * setting), arm the policy's chaos campaign, tick the plant, and fill
 * the result tail.  A scenario builds its substrate from initial(),
 * then hands run() a tick body that steps the plant, invokes control()
 * at its own control points, records, and reports whether the run
 * halted (OOM, out of disk, job done).  That is the paper's Table 7
 * adoption cost: a sensor, setPerf/getConf, and one actuation site.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/runtime.h"
#include "core/smartconf.h"
#include "core/transducer.h"
#include "fault/chaos.h"
#include "scenarios/scenario.h"
#include "sim/clock.h"

namespace smartconf::scenarios {

/** Every case study runs 100 ms ticks. */
inline constexpr double kTicksPerSecond = 10.0;

/** Declarative description of the controlled configuration. */
struct ControlSpec
{
    std::string conf_name;
    std::string metric_name;
    double initial = 0.0; ///< also the plant's starting setting in smart runs
    double conf_min = 0.0;
    double conf_max = 1e18;
    double goal_value = 0.0;
    bool hard = false;
    bool super_hard = false;

    /** Deputy clamp when the controlled variable is not the config. */
    std::optional<double> deputy_min;
    std::optional<double> deputy_max;
};

/**
 * Build a runtime in profiling mode: conf + goal declared, no profile
 * yet.  Scenario profiling drives setPerf through it and then calls
 * finishProfiling.
 */
std::unique_ptr<SmartConfRuntime> makeProfilingRuntime(
    const ControlSpec &spec);

/** What a scenario tells the driver about one evaluation run. */
struct EvaluationSpec
{
    ControlSpec control;

    /** Smart runs profile on seed ^ salt (profiling != evaluation). */
    std::uint64_t profile_salt = 0;

    /** Deputy -> configuration mapping; null for the identity. */
    std::unique_ptr<Transducer> transducer = nullptr;

    double goal_value = 0.0; ///< reported ScenarioResult::goal_value
    sim::Tick ticks = 0;     ///< run horizon

    const char *perf_name = "";
    const char *conf_name = "";
    const char *tradeoff_name = "";

    /** Series recorded on events (flushes, chunks) instead of per tick. */
    bool sparse_perf = false;
    bool sparse_tradeoff = false;
};

/** The scenario-specific numbers that close a run. */
struct RunOutcome
{
    bool violated = false;
    sim::Tick violation_tick = -1; ///< first violation; ignored if none
    double raw_tradeoff = 0.0;     ///< in ScenarioInfo::tradeoff_unit
    std::uint64_t ops_simulated = 0;
    std::span<const std::uint64_t> shard_ops;
};

/** Drives one evaluation run of @p scenario under @p policy. */
class ControlLoop
{
  public:
    ControlLoop(const Scenario &scenario, const Policy &policy,
                std::uint64_t seed, EvaluationSpec spec);

    /** True when SmartConf manages the configuration. */
    bool smart() const { return sc_ != nullptr; }

    /** The setting the plant starts at. */
    double initial() const { return initial_; }

    /**
     * The one control step for a direct configuration: gate the
     * invocation, corrupt the reading, setPerf, getConf, delay the
     * actuation.  @return the setting to apply, or nothing when the
     * policy is static or the invocation was skipped.
     */
    std::optional<double> control(double perf);

    /** Same for an indirect configuration, with the deputy's value. */
    std::optional<double> control(double perf, double deputy);

    /** Run-time goal change (Sec. 4.3); no-op for static policies. */
    void setGoal(double goal);

    /**
     * Tick the plant: @p body(t) for t = 0, 1, ... until the horizon,
     * stopping after a tick whose body returns true.
     */
    template <class Body> void run(Body &&body)
    {
        for (sim::Tick t = 0; t < ticks_; ++t) {
            if (body(t))
                break;
        }
    }

    /** Record one tick of the three per-tick series. */
    void record(sim::Tick t, double perf, double conf, double tradeoff)
    {
        result_.perf_series.record(t, perf);
        recordConf(t, conf);
        result_.tradeoff_series.record(t, tradeoff);
        result_.worst_goal_metric =
            std::max(result_.worst_goal_metric, perf);
    }

    /** Record the configuration in force at @p t. */
    void recordConf(sim::Tick t, double conf)
    {
        result_.conf_series.record(t, conf);
        conf_sum_ += conf;
    }

    /** The result being filled (for sparse series and worst metric). */
    ScenarioResult &result() { return result_; }

    /** Fill the result tail from @p out and hand the result over. */
    ScenarioResult finish(const RunOutcome &out);

  private:
    ScenarioResult result_;
    bool higher_better_;
    sim::Tick ticks_;
    double initial_;
    double conf_sum_ = 0.0;
    std::unique_ptr<SmartConfRuntime> rt_;
    /** Null for static policies.  Direct configurations go through
     *  its SmartConf base calls, indirect ones through SmartConfI's. */
    std::unique_ptr<SmartConfI> sc_;
    fault::ChaosHooks chaos_;
};

} // namespace smartconf::scenarios

#endif // SMARTCONF_SCENARIOS_CONTROL_H_
