#include "scenarios/control.h"

#include <utility>

namespace smartconf::scenarios {

namespace {

/** Translate a Policy's ablation knobs into runtime overrides. */
ControllerOverrides
overridesFor(const Policy &policy)
{
    ControllerOverrides ov;
    switch (policy.kind) {
      case Policy::Kind::Static:
      case Policy::Kind::Smart:
        break;
      case Policy::Kind::SmartSinglePole:
        ov.useContextAwarePoles = false;
        break;
      case Policy::Kind::SmartNoVirtualGoal:
        ov.useVirtualGoal = false;
        break;
    }
    if (policy.pole_override)
        ov.pole = policy.pole_override;
    return ov;
}

std::unique_ptr<SmartConfRuntime>
makeRuntimeCommon(const ControlSpec &spec)
{
    auto rt = std::make_unique<SmartConfRuntime>();
    ConfEntry entry;
    entry.name = spec.conf_name;
    entry.metric = spec.metric_name;
    entry.initial = spec.initial;
    entry.confMin = spec.conf_min;
    entry.confMax = spec.conf_max;
    rt->declareConf(entry);

    Goal goal;
    goal.metric = spec.metric_name;
    goal.value = spec.goal_value;
    goal.direction = GoalDirection::UpperBound;
    goal.hard = spec.hard || spec.super_hard;
    goal.superHard = spec.super_hard;
    rt->declareGoal(goal);
    return rt;
}

/**
 * Build a runtime ready for control: conf + goal declared, overrides
 * applied, profile installed (controller synthesized).
 */
std::unique_ptr<SmartConfRuntime>
makeControlRuntime(const ControlSpec &spec, const Policy &policy,
                   const ProfileSummary &summary)
{
    auto rt = makeRuntimeCommon(spec);
    ControllerOverrides ov = overridesFor(policy);
    ov.deputyMin = spec.deputy_min;
    ov.deputyMax = spec.deputy_max;
    rt->setOverrides(spec.conf_name, ov);
    rt->installProfile(spec.conf_name, summary);
    return rt;
}

/**
 * Injector bundle for one evaluation run: active when the policy
 * carries a chaos campaign, otherwise the inactive (identity) hooks.
 */
fault::ChaosHooks
chaosHooksFor(const Policy &policy, std::uint64_t run_seed)
{
    if (!policy.hasChaos())
        return fault::ChaosHooks();
    return fault::ChaosHooks(*policy.chaos, run_seed);
}

} // namespace

std::unique_ptr<SmartConfRuntime>
makeProfilingRuntime(const ControlSpec &spec)
{
    auto rt = makeRuntimeCommon(spec);
    rt->setProfiling(true);
    return rt;
}

ControlLoop::ControlLoop(const Scenario &scenario, const Policy &policy,
                         std::uint64_t seed, EvaluationSpec spec)
    : higher_better_(scenario.info().tradeoff_higher_better),
      ticks_(spec.ticks), chaos_(chaosHooksFor(policy, seed))
{
    result_.scenario_id = scenario.info().id;
    result_.policy_label = policy.label;
    result_.goal_value = spec.goal_value;
    result_.perf_series = sim::TimeSeries(spec.perf_name);
    result_.conf_series = sim::TimeSeries(spec.conf_name);
    result_.tradeoff_series = sim::TimeSeries(spec.tradeoff_name);
    const auto n = static_cast<std::size_t>(ticks_);
    if (!spec.sparse_perf)
        result_.perf_series.reserve(n);
    result_.conf_series.reserve(n);
    if (!spec.sparse_tradeoff)
        result_.tradeoff_series.reserve(n);

    if (policy.isSmart()) {
        const ProfileSummary summary =
            scenario.profile(seed ^ spec.profile_salt);
        rt_ = makeControlRuntime(spec.control, policy, summary);
        sc_ = std::make_unique<SmartConfI>(*rt_, spec.control.conf_name,
                                           std::move(spec.transducer));
        initial_ = spec.control.initial;
    } else {
        initial_ = policy.value;
    }
    chaos_.seedActuation(initial_);
}

std::optional<double>
ControlLoop::control(double perf)
{
    if (!sc_ || !chaos_.fire())
        return std::nullopt;
    SmartConf &direct = *sc_;
    direct.setPerf(chaos_.measure(perf));
    return chaos_.actuate(direct.getConfReal());
}

std::optional<double>
ControlLoop::control(double perf, double deputy)
{
    if (!sc_ || !chaos_.fire())
        return std::nullopt;
    sc_->setPerf(chaos_.measure(perf), deputy);
    return chaos_.actuate(sc_->getConfReal());
}

void
ControlLoop::setGoal(double goal)
{
    if (sc_)
        sc_->setGoal(goal);
}

ScenarioResult
ControlLoop::finish(const RunOutcome &out)
{
    result_.violated = out.violated;
    result_.violation_time_s =
        out.violated
            ? static_cast<double>(out.violation_tick) / kTicksPerSecond
            : -1.0;
    result_.raw_tradeoff = out.raw_tradeoff;
    // Canonical trade-off score is higher-is-better: invert latencies
    // and makespans.
    if (higher_better_)
        result_.tradeoff = out.raw_tradeoff;
    else
        result_.tradeoff =
            out.raw_tradeoff > 0.0 ? 1.0 / out.raw_tradeoff : 0.0;
    const std::size_t samples = result_.conf_series.size();
    result_.mean_conf =
        samples > 0 ? conf_sum_ / static_cast<double>(samples) : 0.0;
    result_.ops_simulated = out.ops_simulated;
    result_.faults_injected = chaos_.stats().injected();
    result_.shard_ops.assign(out.shard_ops.begin(), out.shard_ops.end());
    return std::move(result_);
}

} // namespace smartconf::scenarios
