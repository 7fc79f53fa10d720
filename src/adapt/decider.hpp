// The adaptive decision, defined once. The in-process Controller and the
// fleet Aggregator both turn an epoch's observations into the next policy
// through decide(): model fold (+ self-cost bill, + metric
// fold) -> kill-switch -> BudgetPlanner or the keep-only safe-mode policy.
// The controller patches the Decision, the aggregator broadcasts it; that
// the decision is the same is what makes a fleet run bit-identical to one
// controller's epoch() over the merged profile and summed runtime.
//
// decide() does not commit: the owner adopt()s the policy once it is live
// (the controller only after the patch lands), because the next epoch is
// measured under the policy in force and the model's decay/freeze
// semantics key off it.
//
// Observations are keyed by the model's dense RegionId (overhead_model.hpp).
// Each owner resolves a region's name to its id once, through regionId(),
// when the region first appears — the Controller per Measurement handle,
// the Aggregator per fleet handle — so no epoch re-keys regions by name.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "adapt/budget_planner.hpp"
#include "adapt/config.hpp"
#include "adapt/overhead_model.hpp"
#include "obs/trace.hpp"
#include "select/ic.hpp"

namespace capi::adapt {

/// The headline numbers of one decision. EpochReport extends this, so a
/// controller's report carries them under the same names.
struct DecisionSummary {
    double measuredProbeCostNs = 0.0;    ///< Observed visits x event cost.
    double measuredOverheadRatio = 0.0;  ///< Cost / runtime, this epoch.
    bool withinBudget = false;           ///< ratio <= budgetFraction.
    double budgetNs = 0.0;               ///< Planner budget applied.
    double plannedProbeCostNs = 0.0;     ///< Predicted cost of the policy.
    std::size_t fullRegions = 0;         ///< Regions at Full in the policy.
    std::size_t sampledRegions = 0;      ///< Regions demoted to Sampled.
    bool killSwitchTripped = false;      ///< Entered safe mode this epoch.
    bool killSwitchRearmed = false;      ///< Left safe mode this epoch.
    /// Trace events the global recorder accepted since the previous epoch.
    std::uint64_t obsEventsObserved = 0;
    /// Those events charged at Config::obsCostNs and folded into the model —
    /// already included in measuredProbeCostNs/measuredOverheadRatio.
    double selfObsCostNs = 0.0;
};

/// What one decide() call concluded: the target policy (its functions are
/// the patch set).
struct Decision : DecisionSummary {
    select::InstrumentationPolicy policy;
};

/// The Decider's complete mutable state, for checkpointing. The survey IC
/// and the knobs are construction inputs, not state.
struct DeciderState {
    ModelState model;
    select::InstrumentationPolicy policy;  ///< The policy in force.
    bool safeMode = false;
    std::uint64_t overBudgetStreak = 0;
    std::uint64_t inBudgetStreak = 0;
};

/// Trace spans decide() records its two phases under, so each owner keeps
/// its own names (adapt.model/adapt.plan, fleet.plan). Unset = no span.
struct DeciderSpans {
    std::optional<std::uint32_t> model;  ///< Model and metric folds.
    std::optional<std::uint32_t> plan;  ///< Kill-switch + planning.
    obs::SpanCategory planCategory = obs::SpanCategory::Plan;
};

class Decider {
public:
    /// `graph` must outlive the decider (the planner's SCC grouping).
    Decider(const cg::CallGraph& graph, Config config, DeciderSpans spans = {});

    Decider(const Decider&) = delete;
    Decider& operator=(const Decider&) = delete;

    /// Installs the survey IC every epoch replans over, and the survey at
    /// Full as the policy in force (the model needs unsampled ground truth
    /// before the planner may demote anything). Seeds the model's region
    /// ids with the survey, in survey order, and binds the planner's
    /// candidate table to it. A restoreState() only appends model ids, so
    /// the table outlives it.
    void start(select::InstrumentationConfig survey);

    /// The model's id for region `name`, interned on first sight. Owners
    /// call this once per region and keep the id.
    RegionId regionId(const std::string& name) { return model_.regionId(name); }
    /// See OverheadModel::suppressedDelta.
    std::uint64_t suppressedDelta(std::uint64_t measurementId, RegionId region,
                                  std::uint64_t cumulative) {
        return model_.suppressedDelta(measurementId, region, cumulative);
    }

    /// Folds one epoch's observations (measured under policy()) into the
    /// model, bills the recorder events since the last call, folds visit
    /// counts into Config::foldVisitMetricsInto, advances the kill-switch,
    /// and plans the next policy — or, in safe mode, returns the keep-only
    /// fallback, whose cost does not depend on the model at all. Each region
    /// appears in `observed` at most once; regions absent from it did not
    /// run (or were not instrumented — see OverheadModel).
    Decision decide(std::span<const RegionObservation> observed,
                    double runtimeNs);

    /// Makes `policy` the policy in force.
    void adopt(select::InstrumentationPolicy policy);

    /// Forces safe mode outside the kill-switch (the controller's last
    /// resort when even reverting a failed patch failed); the re-arm
    /// hysteresis applies as after a trip.
    void enterSafeMode() { safeMode_ = true; }
    /// The keep-list-only policy safe mode runs under.
    select::InstrumentationPolicy safeModePolicy() const;

    /// A restored decider fed the same observations decides bit-identically
    /// to an uninterrupted twin; self-cost billing restarts from the
    /// recorder's current count.
    DeciderState saveState() const;
    void restoreState(DeciderState state);

    const select::InstrumentationPolicy& policy() const { return policy_; }
    const select::InstrumentationConfig& surveyIc() const {
        return planner_.candidates();
    }
    bool safeMode() const { return safeMode_; }
    const Config& config() const { return config_; }

private:
    void advanceKillSwitch(Decision& decision);
    void foldVisitMetrics(std::span<const RegionObservation> observed) const;

    Config config_;
    DeciderSpans spans_;
    OverheadModel model_;
    /// Bound to the survey IC every epoch replans over.
    BudgetPlanner planner_;
    select::InstrumentationPolicy policy_;
    /// The model's id of each region in policy_, derived at adopt().
    std::vector<RegionId> activeIds_;
    bool safeMode_ = false;
    std::size_t overBudgetStreak_ = 0;  ///< Consecutive epochs past the trip ratio.
    std::size_t inBudgetStreak_ = 0;    ///< Consecutive epochs within budget.
    /// Global-recorder recordedEvents() baseline for the self-cost delta,
    /// captured at construction (the counter is process-monotonic).
    std::uint64_t obsEventsAtLastEpoch_ = 0;
};

}  // namespace capi::adapt
