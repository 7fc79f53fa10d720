#include "adapt/decider.hpp"

#include <algorithm>
#include <utility>

#include "cg/call_graph.hpp"

namespace capi::adapt {

Decider::Decider(const cg::CallGraph& graph, Config config, DeciderSpans spans)
    : config_(std::move(config)),
      spans_(spans),
      model_(config_),
      planner_(graph),
      obsEventsAtLastEpoch_(obs::TraceRecorder::global().recordedEvents()) {}

void Decider::start(select::InstrumentationConfig survey) {
    for (const std::string& name : survey.functions) {
        model_.regionId(name);
    }
    planner_.bind(std::move(survey), model_, config_.keep);
    adopt(select::InstrumentationPolicy::fullOf(surveyIc()));
}

Decision Decider::decide(std::span<const RegionObservation> observed,
                         double runtimeNs) {
    Decision decision;
    std::optional<obs::ScopedSpan> span;
    if (spans_.model) {
        span.emplace(*spans_.model, obs::SpanCategory::Model);
    }
    // Everything the recorder accepted since the last epoch is this
    // epoch's observation bill, charged at the calibrated per-event cost
    // BEFORE the headline numbers are read, so the convergence check and
    // the kill-switch both see probe cost PLUS observation cost.
    const std::uint64_t obsEventsNow =
        obs::TraceRecorder::global().recordedEvents();
    decision.obsEventsObserved = obsEventsNow - obsEventsAtLastEpoch_;
    obsEventsAtLastEpoch_ = obsEventsNow;
    decision.selfObsCostNs =
        static_cast<double>(decision.obsEventsObserved) * config_.obsCostNs;

    model_.observeEpoch(observed, runtimeNs, &activeIds_);
    model_.chargeSelfCost(decision.selfObsCostNs);
    foldVisitMetrics(observed);
    span.reset();
    decision.measuredProbeCostNs = model_.lastEpochProbeCostNs();
    decision.measuredOverheadRatio = model_.lastEpochOverheadRatio();
    decision.withinBudget =
        decision.measuredOverheadRatio <= config_.budgetFraction;

    if (spans_.plan) {
        span.emplace(*spans_.plan, spans_.planCategory);
    }
    advanceKillSwitch(decision);
    if (safeMode_) {
        decision.policy = safeModePolicy();
        decision.budgetNs = config_.budgetFraction * runtimeNs;
        decision.fullRegions = decision.policy.countOf(select::Tier::Full);
    } else {
        // Re-plan over the survey candidates, not the shrunken policy in
        // force: the model's frozen estimates let the planner re-admit
        // regions whose smoothed cost no longer blocks the budget (and
        // re-promote regions it demoted to Sampled).
        PlanResult plan = planner_.plan(model_, config_);
        decision.policy = std::move(plan.policy);
        decision.budgetNs = plan.budgetNs;
        decision.plannedProbeCostNs = plan.plannedProbeCostNs;
        decision.fullRegions = plan.fullRegions;
        decision.sampledRegions = plan.sampledRegions;
    }
    if (span) {
        span->setArg(decision.policy.size());
    }
    return decision;
}

void Decider::adopt(select::InstrumentationPolicy policy) {
    std::swap(policy_, policy);
    planner_.recycle(std::move(policy));
    // The model's ids of the patch set, for next epoch's decay step: one
    // merge against the sorted survey, whose ids the planner's table holds.
    const std::vector<std::string>& survey = surveyIc().functions;
    auto it = survey.begin();
    activeIds_.clear();
    for (const std::string& name : policy_.functions) {
        while (it != survey.end() && *it < name) {
            ++it;
        }
        activeIds_.push_back(it != survey.end() && *it == name
                                 ? planner_.candidateRegions()[it - survey.begin()]
                                 : model_.regionId(name));
    }
}

select::InstrumentationPolicy Decider::safeModePolicy() const {
    select::InstrumentationConfig keepIc;
    keepIc.specName = "safe-mode";
    for (const std::string& name : config_.keep) {
        keepIc.addFunction(name);
    }
    return select::InstrumentationPolicy::fullOf(keepIc);
}

void Decider::advanceKillSwitch(Decision& decision) {
    const double tripRatio = config_.budgetFraction * config_.killSwitchFactor;
    if (decision.measuredOverheadRatio > tripRatio) {
        ++overBudgetStreak_;
        inBudgetStreak_ = 0;
    } else if (decision.withinBudget) {
        ++inBudgetStreak_;
        overBudgetStreak_ = 0;
    } else {
        // The grey zone between budget and trip ratio: breaks both streaks,
        // which is the hysteresis that keeps a borderline workload from
        // flapping between tripped and re-armed.
        overBudgetStreak_ = 0;
        inBudgetStreak_ = 0;
    }
    if (!safeMode_ && overBudgetStreak_ >= config_.killSwitchEpochs) {
        safeMode_ = true;
        overBudgetStreak_ = 0;
        decision.killSwitchTripped = true;
    } else if (safeMode_ && inBudgetStreak_ >= config_.killSwitchRearmEpochs) {
        safeMode_ = false;
        inBudgetStreak_ = 0;
        decision.killSwitchRearmed = true;
    }
}

void Decider::foldVisitMetrics(
    std::span<const RegionObservation> observed) const {
    if (config_.foldVisitMetricsInto == nullptr) {
        return;
    }
    // Route the epoch's observed visit counts into the graph as metric-only
    // journal touches: only the regions whose count actually changed are
    // dirtied, so a following re-selection patches its CSR snapshot and
    // keeps every cached stage that reads no metrics of the touched nodes.
    cg::CallGraph& graph = *config_.foldVisitMetricsInto;
    for (const RegionObservation& obs : observed) {
        cg::FunctionId id = graph.lookup(model_.regionName(obs.region));
        if (id == cg::kInvalidFunction || !graph.alive(id)) {
            continue;
        }
        const auto visits = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(obs.visits, UINT32_MAX));
        if (graph.desc(id).metrics.profiledVisits != visits) {
            graph.touchMetrics(id, [visits](cg::FunctionMetrics& metrics) {
                metrics.profiledVisits = visits;
            });
        }
    }
}

DeciderState Decider::saveState() const {
    DeciderState state;
    state.model = model_.saveState();
    state.policy = policy_;
    state.safeMode = safeMode_;
    state.overBudgetStreak = overBudgetStreak_;
    state.inBudgetStreak = inBudgetStreak_;
    return state;
}

void Decider::restoreState(DeciderState state) {
    model_.restoreState(state.model);
    adopt(std::move(state.policy));
    safeMode_ = state.safeMode;
    overBudgetStreak_ = static_cast<std::size_t>(state.overBudgetStreak);
    inBudgetStreak_ = static_cast<std::size_t>(state.inBudgetStreak);
    // The events recorded before the save belong to the saved run's epochs.
    obsEventsAtLastEpoch_ = obs::TraceRecorder::global().recordedEvents();
}

}  // namespace capi::adapt
