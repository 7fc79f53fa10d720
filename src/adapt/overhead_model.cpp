#include "adapt/overhead_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace capi::adapt {

namespace {

double ewma(double previous, double observed, double alpha, bool first) {
    return first ? observed : alpha * observed + (1.0 - alpha) * previous;
}

/// Folds one epoch of a region into its estimate, extrapolated to what a
/// Full epoch would have measured: the visit count is exact (every
/// suppression was counted); the exclusive time scales the recorded sample
/// by the decimation factor. An epoch with suppressions but no recorded
/// sample carries no time information — visits update, exclusiveNs stays
/// frozen at the last estimate. All zeros is a region that did not run.
void fold(RegionEstimate& estimate, double visits, double exclusiveNs,
          double suppressed, double alpha) {
    const double trueVisits = visits + suppressed;
    const double factor = visits > 0.0 ? trueVisits / visits : 1.0;
    const bool first = estimate.epochsObserved == 0;
    estimate.visits = ewma(estimate.visits, trueVisits, alpha, first);
    if (visits > 0.0 || suppressed == 0.0) {
        estimate.exclusiveNs =
            ewma(estimate.exclusiveNs, exclusiveNs * factor, alpha, first);
    }
    estimate.samplingFactor = ewma(estimate.samplingFactor, factor, alpha, first);
    ++estimate.epochsObserved;
}

}  // namespace

RegionId OverheadModel::regionId(const std::string& name) {
    auto [it, inserted] =
        ids_.try_emplace(name, static_cast<RegionId>(names_.size()));
    if (inserted) {
        names_.push_back(&it->first);
        estimates_.emplace_back();
        lastSuppressed_.push_back(0);
        seen_.push_back(false);
    }
    return it->second;
}

std::uint64_t OverheadModel::suppressedDelta(std::uint64_t measurementId,
                                             RegionId region,
                                             std::uint64_t cumulative) {
    if (measurementId != lastMeasurementId_) {
        std::fill(lastSuppressed_.begin(), lastSuppressed_.end(), 0);
        lastMeasurementId_ = measurementId;
    }
    std::uint64_t& last = lastSuppressed_.at(region);
    const std::uint64_t delta = cumulative >= last ? cumulative - last : cumulative;
    last = cumulative;
    return delta;
}

void OverheadModel::observeEpoch(std::span<const RegionObservation> observed,
                                 double epochRuntimeNs,
                                 const std::vector<RegionId>* active) {
    for (const RegionObservation& obs : observed) {
        if (obs.region >= names_.size()) {
            throw std::out_of_range("overhead model: unknown region id");
        }
    }
    std::uint64_t epochVisits = 0;
    std::uint64_t epochSuppressed = 0;
    for (const RegionObservation& obs : observed) {
        epochVisits += obs.visits;
        epochSuppressed += obs.suppressed;
        seen_[obs.region] = true;
        std::optional<RegionEstimate>& slot = estimates_[obs.region];
        fold(slot ? *slot : slot.emplace(), static_cast<double>(obs.visits),
             static_cast<double>(obs.exclusiveNs),
             static_cast<double>(obs.suppressed), ewmaAlpha_);
    }
    // Recorded events pay the full probe; suppressed ones only the gate.
    const double epochCostNs =
        static_cast<double>(epochVisits) * 2.0 * perEventCostNs_ +
        static_cast<double>(epochSuppressed) * 2.0 * gateCostNs_;

    // Active regions without profile data observed zero this epoch; inactive
    // regions are unobservable and keep their frozen estimate.
    if (active != nullptr) {
        for (RegionId id : *active) {
            if (seen_.at(id)) {
                continue;
            }
            std::optional<RegionEstimate>& slot = estimates_[id];
            if (slot && slot->epochsObserved > 0) {  // Never seen: no decay.
                fold(*slot, 0.0, 0.0, 0.0, ewmaAlpha_);
            }
        }
    }
    for (const RegionObservation& obs : observed) {
        seen_[obs.region] = false;
    }

    bool first = epochs_ == 0;
    runtimeNs_ = ewma(runtimeNs_, epochRuntimeNs, ewmaAlpha_, first);
    incurredCostNs_ = ewma(incurredCostNs_, epochCostNs, ewmaAlpha_, first);
    lastEpochCostNs_ = epochCostNs;
    lastEpochRuntimeNs_ = epochRuntimeNs;
    ++epochs_;
}

void OverheadModel::chargeSelfCost(double selfCostNs) {
    if (selfCostNs <= 0.0 || epochs_ == 0) {
        return;
    }
    lastEpochCostNs_ += selfCostNs;
    // observeEpoch already folded this epoch's probe cost; add the same
    // epoch's self cost with the identical weight (epochs_ was incremented,
    // so "first" is now epochs_ == 1).
    incurredCostNs_ +=
        epochs_ == 1 ? selfCostNs : ewmaAlpha_ * selfCostNs;
}

RegionId OverheadModel::find(const std::string& name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? kNoRegion : it->second;
}

ModelState OverheadModel::saveState() const {
    ModelState state;
    state.epochs = epochs_;
    state.runtimeNs = runtimeNs_;
    state.incurredCostNs = incurredCostNs_;
    state.lastEpochCostNs = lastEpochCostNs_;
    state.lastEpochRuntimeNs = lastEpochRuntimeNs_;
    state.lastMeasurementId = lastMeasurementId_;
    for (RegionId id = 0; id < names_.size(); ++id) {
        if (estimates_[id]) {
            state.estimates.emplace_back(regionName(id), *estimates_[id]);
        }
        if (lastSuppressed_[id] != 0) {
            state.lastSuppressed.emplace_back(regionName(id), lastSuppressed_[id]);
        }
    }
    auto byName = [](const auto& a, const auto& b) { return a.first < b.first; };
    std::sort(state.estimates.begin(), state.estimates.end(), byName);
    std::sort(state.lastSuppressed.begin(), state.lastSuppressed.end(), byName);
    return state;
}

void OverheadModel::restoreState(const ModelState& state) {
    epochs_ = state.epochs;
    runtimeNs_ = state.runtimeNs;
    incurredCostNs_ = state.incurredCostNs;
    lastEpochCostNs_ = state.lastEpochCostNs;
    lastEpochRuntimeNs_ = state.lastEpochRuntimeNs;
    lastMeasurementId_ = state.lastMeasurementId;
    estimates_.assign(names_.size(), std::nullopt);
    std::fill(lastSuppressed_.begin(), lastSuppressed_.end(), 0);
    for (const auto& [name, estimate] : state.estimates) {
        const RegionId id = regionId(name);
        estimates_[id] = estimate;
    }
    for (const auto& [name, count] : state.lastSuppressed) {
        const RegionId id = regionId(name);
        lastSuppressed_[id] = count;
    }
}

double profileErrorPercent(const scorep::Measurement& estimated,
                           const scorep::Measurement& truth) {
    struct Totals {
        double visits = 0.0;
        double exclusiveNs = 0.0;
        double suppressed = 0.0;
    };
    auto foldByName = [](const scorep::Measurement& m) {
        std::unordered_map<std::string, Totals> byName;
        for (const auto& [region, totals] : m.mergedProfile().regionTotals()) {
            Totals& entry = byName[m.region(region).name];
            entry.visits += static_cast<double>(totals.visits);
            entry.exclusiveNs += static_cast<double>(totals.exclusiveNs);
        }
        for (const auto& [region, count] : m.suppressedVisits()) {
            byName[m.region(region).name].suppressed +=
                static_cast<double>(count);
        }
        return byName;
    };

    const auto est = foldByName(estimated);
    const auto ref = foldByName(truth);
    double errorSum = 0.0;
    std::size_t regions = 0;
    for (const auto& [name, truthTotals] : ref) {
        const double trueVisits = truthTotals.visits + truthTotals.suppressed;
        if (trueVisits <= 0.0) {
            continue;
        }
        Totals estTotals;
        if (auto it = est.find(name); it != est.end()) {
            estTotals = it->second;
        }
        const double estVisits = estTotals.visits + estTotals.suppressed;
        const double factor =
            estTotals.visits > 0.0 ? estVisits / estTotals.visits : 0.0;
        const double estExclusive = estTotals.exclusiveNs * factor;
        double error = std::abs(estVisits - trueVisits) / trueVisits;
        if (truthTotals.exclusiveNs > 0.0) {
            error = 0.5 * (error + std::abs(estExclusive - truthTotals.exclusiveNs) /
                                       truthTotals.exclusiveNs);
        }
        errorSum += error;
        ++regions;
    }
    return regions == 0 ? 0.0 : 100.0 * errorSum / static_cast<double>(regions);
}

}  // namespace capi::adapt
