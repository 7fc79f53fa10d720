// Per-region probe-cost estimation across measurement epochs.
//
// The adaptive decision (see decider.hpp) needs two numbers per region
// to trade instrumentation coverage against overhead: what keeping the
// region's probes costs per epoch (visit count x calibrated per-event cost,
// the model of Arafa et al.'s "redundancy" — probes whose cost exceeds their
// information value) and what measuring it buys (its exclusive time). Both
// are folded across epochs with an exponentially weighted moving average so
// a single bursty epoch cannot thrash the instrumented set, following the
// adaptive-sampling feedback designs of Mertz & Nunes.
//
// Regions carried in the active IC but absent from an epoch's profile
// observed a true zero (they did not run); regions *outside* the active IC
// are unobservable — their probes are unpatched — so their estimates stay
// frozen at the last measured value, which is the best predictor available
// should the planner re-admit them.
//
// Regions are keyed by a dense RegionId from measurement to decision: the
// model interns each name once (the Decider seeds the table with the survey,
// so on a fresh model a survey region's position is its id) and keeps its
// estimates and suppression baselines in vectors indexed by it. Owners map
// their own handles to ids once, when a region first appears.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adapt/config.hpp"
#include "scorepsim/measurement.hpp"
#include "select/ic.hpp"

namespace capi::adapt {

/// Dense region key of an OverheadModel, assigned in interning order.
using RegionId = std::uint32_t;
/// No region: what find() answers for a name never interned.
inline constexpr RegionId kNoRegion = UINT32_MAX;

/// Smoothed per-epoch behaviour of one region.
struct RegionEstimate {
    double visits = 0.0;        ///< *True* visits per epoch (EWMA): recorded
                                ///< plus gate-suppressed, so a Sampled epoch
                                ///< estimates the same count a Full epoch
                                ///< would have measured.
    double exclusiveNs = 0.0;   ///< Exclusive time per epoch (EWMA). At a
                                ///< Sampled region this is the recorded time
                                ///< extrapolated by trueVisits/recorded.
    std::size_t epochsObserved = 0;
    /// EWMA of trueVisits / recordedVisits for the region: 1.0 while fully
    /// measured, everyN-ish while decimated, decaying back toward 1.0 over
    /// Full epochs. A high factor flags estimates carrying extrapolation
    /// noise; an epoch whose samples were ALL suppressed (no time recorded)
    /// updates visits exactly but leaves exclusiveNs frozen.
    double samplingFactor = 1.0;
};

/// One region's epoch observation. `suppressed` is the epoch's
/// gate-suppressed visit DELTA (owners difference a Measurement's
/// cumulative counters through OverheadModel::suppressedDelta).
struct RegionObservation {
    RegionId region = 0;
    std::uint64_t visits = 0;
    std::uint64_t exclusiveNs = 0;
    std::uint64_t suppressed = 0;
};

/// The model's complete mutable state, exported for checkpointing (the
/// fleet aggregator's snapshot frame). Per-region members are flattened to
/// name-sorted vectors so two saves of the same model are byte-identical
/// once encoded whatever order its ids were assigned in, and doubles are
/// carried verbatim — restoreState followed by the same observations
/// continues bit-identically.
struct ModelState {
    std::size_t epochs = 0;
    double runtimeNs = 0.0;
    double incurredCostNs = 0.0;
    double lastEpochCostNs = 0.0;
    double lastEpochRuntimeNs = 0.0;
    std::uint64_t lastMeasurementId = 0;
    std::vector<std::pair<std::string, RegionEstimate>> estimates;
    std::vector<std::pair<std::string, std::uint64_t>> lastSuppressed;
};

class OverheadModel {
public:
    /// Takes perEventCostNs/ewmaAlpha plus the gate cost the tiered
    /// accounting charges per suppressed event.
    explicit OverheadModel(const Config& config = {})
        : perEventCostNs_(config.perEventCostNs),
          ewmaAlpha_(config.ewmaAlpha),
          gateCostNs_(config.gateCostNs) {}

    /// The id table points into itself; a copy would dangle.
    OverheadModel(const OverheadModel&) = delete;
    OverheadModel& operator=(const OverheadModel&) = delete;

    /// The id of `name`, interned (appended) on first sight.
    RegionId regionId(const std::string& name);
    /// The id of `name` if interned, else kNoRegion; interns nothing.
    RegionId find(const std::string& name) const;
    const std::string& regionName(RegionId id) const { return *names_[id]; }

    /// The epoch's share of a Measurement's cumulative gate-suppressed
    /// visit counter for `region`: the counter differenced against the last
    /// epoch's. A Measurement instance other than the last one seen
    /// restarts every baseline, because a fresh Measurement's counters ARE
    /// the epoch's delta — even when a deterministic workload makes them
    /// numerically identical to the previous epoch's.
    std::uint64_t suppressedDelta(std::uint64_t measurementId, RegionId region,
                                  std::uint64_t cumulative);

    /// Folds one epoch's observations (each region at most once) into the
    /// estimates. `active` holds the ids of the regions that were
    /// instrumented during the epoch: those it names but `observed` does
    /// not decay toward zero (see the freeze semantics above); nullptr
    /// decays nothing. The epoch's probe cost is folded from
    /// the summed visit and suppression counts — exact integers — so it
    /// does not depend on the order the observations arrive in: a fleet
    /// aggregation and an in-process reference run that first saw regions
    /// in different orders still get bit-identical budgets and plans.
    void observeEpoch(std::span<const RegionObservation> observed,
                      double epochRuntimeNs,
                      const std::vector<RegionId>* active = nullptr);

    std::size_t epochCount() const { return epochs_; }

    /// nullptr until the region is first observed (or for kNoRegion).
    const RegionEstimate* estimate(RegionId id) const {
        return id < estimates_.size() && estimates_[id] ? &*estimates_[id]
                                                        : nullptr;
    }
    const RegionEstimate* estimate(const std::string& name) const {
        return estimate(find(name));
    }

    /// Predicted per-epoch probe cost of keeping a region instrumented:
    /// one enter plus one exit event per visit.
    double probeCostNs(const RegionEstimate& estimate) const {
        return estimate.visits * 2.0 * perEventCostNs_;
    }

    /// Runtime attributable to the application itself — the base the
    /// planner's budget is computed against, so the post-trim overhead
    /// ratio stays below the budget even as the runtime shrinks.
    double appRuntimeNs() const {
        double app = runtimeNs_ - incurredCostNs_;
        return app > 0.0 ? app : 0.0;
    }

    /// Charges additional measurement-infrastructure cost (the trace
    /// recorder's own events, obs::calibrateObsCostNs x events) against the
    /// CURRENT epoch — call directly after observeEpoch. The charge lands in
    /// both the un-smoothed epoch cost (so the convergence check and the
    /// kill-switch see it) and the EWMA'd incurred cost (so the planner's
    /// budget base shrinks by it), with the same first/alpha fold
    /// observeEpoch applied to this epoch's probe cost.
    void chargeSelfCost(double selfCostNs);

    /// Exports the EWMA state (sorted, deterministic) for checkpointing.
    /// Knobs (perEventCostNs/ewmaAlpha/gateCostNs) are NOT part of the
    /// state — a restored model takes them from its own construction, the
    /// same way a fleet reference run does.
    ModelState saveState() const;
    /// Replaces the model's state wholesale with a previously saved one.
    /// Interned ids survive: a restore only ever appends names.
    void restoreState(const ModelState& state);

    /// The latest epoch alone, un-smoothed: this is the "measured probe
    /// overhead" the controller checks for convergence.
    double lastEpochProbeCostNs() const { return lastEpochCostNs_; }
    double lastEpochOverheadRatio() const {
        return lastEpochRuntimeNs_ > 0.0 ? lastEpochCostNs_ / lastEpochRuntimeNs_
                                         : 0.0;
    }

private:
    double perEventCostNs_;
    double ewmaAlpha_;
    double gateCostNs_;
    /// The intern table: name -> id, and id -> the map's own key. Every
    /// per-id vector below grows with it.
    std::unordered_map<std::string, RegionId> ids_;
    std::vector<const std::string*> names_;
    /// Empty until the region is first observed (or restored).
    std::vector<std::optional<RegionEstimate>> estimates_;
    /// The cumulative suppressed-visit counter at the last observed epoch
    /// of Measurement lastMeasurementId_ (0 = no baseline).
    std::vector<std::uint64_t> lastSuppressed_;
    std::uint64_t lastMeasurementId_ = 0;
    /// Set while observeEpoch folds the region: observed this epoch.
    std::vector<bool> seen_;
    std::size_t epochs_ = 0;
    double runtimeNs_ = 0.0;
    double incurredCostNs_ = 0.0;
    double lastEpochCostNs_ = 0.0;
    double lastEpochRuntimeNs_ = 0.0;
};

/// Estimated-vs-true profile error, in percent: for every region the `truth`
/// measurement recorded, compare the `estimated` measurement's extrapolated
/// totals (recorded + suppressed visits; exclusive time scaled by
/// trueVisits/recordedVisits) against the fully measured ones, and average
/// the per-region relative errors of visit count and exclusive time. This is
/// the accuracy a Sampled tier trades for its overhead reduction; both
/// measurements must be quiescent. Returns 0 when `truth` saw nothing.
double profileErrorPercent(const scorep::Measurement& estimated,
                           const scorep::Measurement& truth);

}  // namespace capi::adapt
